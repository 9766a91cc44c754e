package compile

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/gate"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
)

// phaseAnsatz is a parametric circuit whose diagonal stretches hold bound
// angles (rz, cu1, crz, rzz between Hadamard layers) and whose CX ring
// makes a lazy schedule remap.
func phaseAnsatz(n int, theta []float64) *circuit.Circuit {
	c := circuit.New("phase_ansatz", n)
	k := 0
	next := func() float64 { k++; return theta[k%len(theta)] }
	for layer := 0; layer < 3; layer++ {
		for q := 0; q < n; q++ {
			c.H(q)
		}
		for q := 0; q < n; q++ {
			c.RZ(next(), q).CU1(next(), q, (q+1)%n)
		}
		c.CRZ(next(), 0, n-1).RZZ(next(), 1, n-2).T(2)
		for q := 0; q < n; q++ {
			c.CX(q, (q+1)%n)
		}
	}
	return c
}

// shape strips the plan-dependent step index off the runs.
func shape(runs []Run) []Run {
	out := append([]Run(nil), runs...)
	for i := range out {
		out[i].Step = 0
	}
	return out
}

// TestDiagRunsDependOnCircuitOnly: which stretches merge, where they are
// cut and which table every term lands in are the same under every
// schedule, fleet size and tiling, and on a plan-cache hit of a re-bound
// circuit; only the step index follows the plan, and it points at the
// run's own gate steps.
func TestDiagRunsDependOnCircuitOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	theta := func() []float64 {
		p := make([]float64, 17)
		for i := range p {
			p[i] = (rng.Float64()*2 - 1) * math.Pi
		}
		return p
	}
	bound := theta()
	circuits := []*circuit.Circuit{qasmbench.QFT(12), qasmbench.RQC(12, 8, 3), phaseAnsatz(9, bound)}
	for _, c := range circuits {
		want := DiagRuns(c)
		if len(want) == 0 {
			t.Fatalf("%s: no runs marked", c.Name)
		}
		for _, pol := range []sched.Policy{sched.Naive, sched.Lazy} {
			for _, pes := range []int{1, 2, 8} {
				for _, tileBits := range []int{0, 3} {
					cp, st, err := Compile(c, Config{Sched: pol, PEs: pes, TileBits: tileBits})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(shape(cp.Runs), shape(want)) {
						t.Fatalf("%s %s pes=%d tile-bits=%d: runs %+v, want %+v", c.Name, pol, pes, tileBits, cp.Runs, want)
					}
					if _, merged, _, _ := countRuns(want); st.DiagRuns != len(want) || st.Merged != merged {
						t.Fatalf("%s: stats report %d runs / %d gates", c.Name, st.DiagRuns, st.Merged)
					}
					for _, run := range cp.Runs {
						for i := 0; i < run.Gates; i++ {
							if s := cp.Plan.Steps[run.Step+i]; s.Kind != sched.StepGate || s.Op != run.Op+i {
								t.Fatalf("%s %s pes=%d: step %d of run %+v is %+v", c.Name, pol, pes, run.Step+i, run, s)
							}
						}
					}
				}
			}
		}
	}

	// A hit re-binds the template: same runs as a fresh compile of the
	// new binding, and no run work on the hit path.
	cache := NewCache(4)
	cfg := Config{Sched: sched.Lazy, PEs: 4, Cache: cache}
	if _, _, err := Compile(phaseAnsatz(9, bound), cfg); err != nil {
		t.Fatal(err)
	}
	rebound := phaseAnsatz(9, theta())
	hit, st, err := Compile(rebound, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !st.CacheHit {
		t.Fatal("re-bound ansatz missed the plan cache")
	}
	fresh, _, err := Compile(rebound, Config{Sched: sched.Lazy, PEs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hit.Runs, fresh.Runs) {
		t.Fatalf("cache hit runs %+v, fresh compile %+v", hit.Runs, fresh.Runs)
	}
}

// TestDiagRunShapes pins the marking rules on hand-built stretches.
func TestDiagRunShapes(t *testing.T) {
	// QFT(22): every CU1 ladder of two or more gates is one run pinned on
	// the ladder's target; 21 qubits split 11 + 10 over the two tables.
	runs := DiagRuns(qasmbench.QFT(22))
	if _, merged, _, _ := countRuns(runs); len(runs) != 20 || merged != 230 {
		t.Fatalf("QFT(22): %d runs of %d gates, want 20 of 230", len(runs), merged)
	}
	first := runs[0]
	if first.Gates != 21 || first.Pinned != 1<<21 || bits.OnesCount64(first.Qubits[0]) != 11 || bits.OnesCount64(first.Qubits[1]) != 10 {
		t.Fatalf("QFT(22) first run: %+v", first)
	}

	mark := func(n int, gs ...gate.Gate) []Run {
		c := circuit.New("t", n)
		c.Append(gs...)
		return DiagRuns(c)
	}
	// A BARRIER, a conditional op and a non-diagonal gate each cut.
	if r := mark(8, gate.NewT(0), gate.NewT(1), gate.NewBarrier(), gate.NewT(2), gate.NewT(3)); len(r) != 2 {
		t.Fatalf("barrier: %+v", r)
	}
	// A u3 that binds diagonal is not statically diagonal.
	if r := mark(8, gate.NewT(0), gate.NewU3(0, 0.1, 0.2, 1), gate.NewT(2)); len(r) != 0 {
		t.Fatalf("u3: %+v", r)
	}
	// Every stretch of two or more gates merges, common qubit or not.
	if r := mark(8, gate.NewCZ(0, 1), gate.NewCZ(2, 3)); len(r) != 1 || r[0].Gates != 2 || r[0].Pinned != 0 {
		t.Fatalf("two CZ: %+v", r)
	}
	if r := mark(8, gate.NewCU1(0.3, 0, 1), gate.NewCU1(0.5, 2, 1)); len(r) != 1 || r[0].Pinned != 1<<1 {
		t.Fatalf("two CU1 sharing a qubit: %+v", r)
	}
	// Five qubits do not fit two 2-qubit tables (n = 5): the gate that
	// brings the fifth closes the run and opens the next, and every table
	// stays within the width.
	var gs []gate.Gate
	for q := 0; q < 5; q++ {
		gs = append(gs, gate.NewRZ(0.1*float64(q+1), q), gate.NewT(q))
	}
	r := mark(5, gs...)
	if len(r) != 2 || r[0].Gates != 8 || r[1].Op != 8 || r[1].Gates != 2 {
		t.Fatalf("wide stretch: %+v", r)
	}
	for _, run := range r {
		for _, qs := range run.Qubits {
			if bits.OnesCount64(qs) > tableBits(5) {
				t.Fatalf("run %+v exceeds the table width %d", run, tableBits(5))
			}
		}
	}
}

// TestDiagRunsSurviveACut: the runs of a stream cut at any step boundary
// are the runs behind the cut, shifted — what an elastic shrink relies on
// when it recompiles the residual circuit: the shrunk fleet executes the
// passes the uninterrupted run would have. Narrow registers make
// stretches overflow the two tables, so cuts fall inside stretches, at
// the edge between two runs and around single-gate pieces.
func TestDiagRunsSurviveACut(t *testing.T) {
	var kinds []gate.Kind
	for i := 0; i < gate.NumKinds; i++ {
		if k := gate.Kind(i); k.Diagonal() && k.NumQubits() > 0 {
			kinds = append(kinds, k)
		}
	}
	rng := rand.New(rand.NewSource(11))
	inside := 0 // cuts that fell inside a diagonal stretch
	for trial := 0; trial < 200; trial++ {
		n := 4 + rng.Intn(6)
		c := circuit.New("cut", n)
		for i := 0; i < 60; i++ {
			if rng.Intn(10) == 0 {
				c.H(rng.Intn(n))
				continue
			}
			k := kinds[rng.Intn(len(kinds))]
			ps := make([]float64, k.NumParams())
			for j := range ps {
				ps[j] = rng.Float64()*4 - 2
			}
			c.Append(gate.New(k, rng.Perm(n)[:k.NumQubits()], ps...))
		}
		whole := DiagRuns(c)
		boundary := make([]bool, len(c.Ops)+1)
		for i := range boundary {
			boundary[i] = true
		}
		for _, run := range whole {
			for i := 1; i < run.Gates; i++ {
				boundary[run.Op+i] = false
			}
		}
		for cut := 0; cut <= len(c.Ops); cut++ {
			if !boundary[cut] {
				continue
			}
			if cut > 0 && cut < len(c.Ops) && mergeable(&c.Ops[cut-1]) && mergeable(&c.Ops[cut]) {
				inside++
			}
			var want []Run
			for _, run := range whole {
				if run.Op >= cut {
					run.Step, run.Op = run.Step-cut, run.Op-cut
					want = append(want, run)
				}
			}
			rest := circuit.New("rest", n)
			rest.Append(opsGates(c.Ops[cut:])...)
			if got := DiagRuns(rest); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d cut %d: residual runs %+v, want %+v", trial, cut, got, want)
			}
		}
	}
	if inside < 100 {
		t.Fatalf("only %d cuts fell inside a stretch", inside)
	}
}

func opsGates(ops []circuit.Op) []gate.Gate {
	gs := make([]gate.Gate, len(ops))
	for i := range ops {
		gs[i] = ops[i].G
	}
	return gs
}
