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

// runCounts is the Stats counters of runs.
func runCounts(runs []Run) Stats {
	var st Stats
	st.runStats(runs)
	return st
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
		want := DiagRuns(c, false)
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
					if ws := runCounts(want); st.DiagRuns != len(want) || st.Merged != ws.Merged {
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
	runs := DiagRuns(qasmbench.QFT(22), false)
	if st := runCounts(runs); len(runs) != 20 || st.Merged != 230 {
		t.Fatalf("QFT(22): %d runs of %d gates, want 20 of 230", len(runs), st.Merged)
	}
	first := runs[0]
	if first.Gates != 21 || first.Pinned != 1<<21 || bits.OnesCount64(first.Qubits[0]) != 11 || bits.OnesCount64(first.Qubits[1]) != 10 {
		t.Fatalf("QFT(22) first run: %+v", first)
	}

	mark := func(n int, gs ...gate.Gate) []Run {
		c := circuit.New("t", n)
		c.Append(gs...)
		return DiagRuns(c, false)
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
// the edge between two runs and around single-gate pieces. Under the
// fused rule the streams also hold cx, so cuts fall inside cx networks,
// where a walk that found no window moved on by one op.
func TestDiagRunsSurviveACut(t *testing.T) {
	var kinds []gate.Kind
	for i := 0; i < gate.NumKinds; i++ {
		if k := gate.Kind(i); k.Diagonal() && k.NumQubits() > 0 {
			kinds = append(kinds, k)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for _, fused := range []bool{false, true} {
		inside, through := 0, 0 // cuts that fell inside a stretch; runs through cx
		for trial := 0; trial < 200; trial++ {
			n := 4 + rng.Intn(6)
			c := circuit.New("cut", n)
			for i := 0; i < 60; i++ {
				switch r := rng.Intn(10); {
				case r == 0:
					c.H(rng.Intn(n))
					continue
				case fused && r < 4:
					p := rng.Perm(n)
					c.CX(p[0], p[1])
					continue
				}
				k := kinds[rng.Intn(len(kinds))]
				ps := make([]float64, k.NumParams())
				for j := range ps {
					ps[j] = rng.Float64()*4 - 2
				}
				c.Append(gate.New(k, rng.Perm(n)[:k.NumQubits()], ps...))
			}
			whole := DiagRuns(c, fused)
			boundary := make([]bool, len(c.Ops)+1)
			for i := range boundary {
				boundary[i] = true
			}
			for _, run := range whole {
				for i := 1; i < run.Gates; i++ {
					boundary[run.Op+i] = false
				}
				if run.ThroughCX {
					through++
				}
			}
			for cut := 0; cut <= len(c.Ops); cut++ {
				if !boundary[cut] {
					continue
				}
				if cut > 0 && cut < len(c.Ops) && c.Ops[cut-1].G.Kind != gate.H && c.Ops[cut].G.Kind != gate.H {
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
				if got := DiagRuns(rest, fused); !reflect.DeepEqual(got, want) {
					t.Fatalf("fused=%v trial %d cut %d: residual runs %+v, want %+v", fused, trial, cut, got, want)
				}
			}
		}
		if inside < 100 || fused && through < 40 {
			t.Fatalf("fused=%v: only %d cuts fell inside a stretch, %d runs through cx", fused, inside, through)
		}
	}
}

func opsGates(ops []circuit.Op) []gate.Gate {
	gs := make([]gate.Gate, len(ops))
	for i := range ops {
		gs[i] = ops[i].G
	}
	return gs
}

// TestThroughCXRules pins the window rule of a fused plan on hand-built
// streams: what opens, extends and closes a window, the parity expansion
// of its terms, and what a schedule and a tile plan make of it.
func TestThroughCXRules(t *testing.T) {
	mark := func(fused bool, n int, build func(c *circuit.Circuit)) []Run {
		c := circuit.New("w", n)
		c.NumClbits = 1
		build(c)
		return DiagRuns(c, fused)
	}
	cu1 := func(c *circuit.Circuit) { c.U1(0.4, 0).CX(0, 1).U1(-0.4, 1).CX(0, 1).U1(0.4, 1) }

	// A lowered cu1 is one run under the fused rule, none under the
	// unfused one (its u1s are single-gate pieces).
	if r := mark(true, 4, cu1); len(r) != 1 || r[0].Gates != 5 || !r[0].ThroughCX {
		t.Fatalf("lowered cu1: %+v", r)
	}
	if r := mark(false, 4, cu1); len(r) != 0 {
		t.Fatalf("lowered cu1, unfused rule: %+v", r)
	}

	// cx c,t; u1(θ) t; cx c,t is e^{iθ(x_c ⊕ x_t)}: terms on {c}, {t} and
	// {c,t} with phases e^{iθ}, e^{iθ}, e^{−2iθ}.
	c := circuit.New("parity", 3).CX(0, 2).U1(0.3, 2).CX(0, 2)
	runs := DiagRuns(c, true)
	if len(runs) != 1 {
		t.Fatalf("cx u1 cx: %+v", runs)
	}
	terms := runs[0].Terms(c.Ops, nil)
	want := []gate.DiagTerm{{Mask: 0b001}, {Mask: 0b100}, {Mask: 0b101}}
	for i, th := range []float64{0.3, 0.3, -0.6} {
		want[i].Re, want[i].Im = math.Cos(th), math.Sin(th)
	}
	if len(terms) != len(want) || len(runs[0].Table) != len(terms) {
		t.Fatalf("cx u1 cx: terms %+v, tables %v", terms, runs[0].Table)
	}
	for i := range want {
		if terms[i].Mask != want[i].Mask || math.Abs(terms[i].Re-want[i].Re) > 1e-15 || math.Abs(terms[i].Im-want[i].Im) > 1e-15 {
			t.Fatalf("cx u1 cx: term %d is %+v, want %+v", i, terms[i], want[i])
		}
	}

	// The longest prefix back at the identity wins; cx members alone, or a
	// network that never returns, make no run.
	if r := mark(true, 4, func(c *circuit.Circuit) { c.T(0).CX(0, 1).T(1).CX(0, 1).CX(2, 3).T(3) }); len(r) != 1 || r[0].Gates != 4 {
		t.Fatalf("prefix back at the identity: %+v", r)
	}
	if r := mark(true, 4, func(c *circuit.Circuit) { c.CX(0, 1).CX(0, 1).H(0) }); len(r) != 0 {
		t.Fatalf("cx only: %+v", r)
	}
	// Near misses close the window before them: x, h, measure, a
	// conditional op, a barrier; a cx widening a parity past three
	// qubits; a two-operand gate on a qubit holding a parity.
	closers := map[string]func(c *circuit.Circuit){
		"x":       func(c *circuit.Circuit) { c.X(1) },
		"h":       func(c *circuit.Circuit) { c.H(3) },
		"measure": func(c *circuit.Circuit) { c.Measure(2, 0) },
		"cond":    func(c *circuit.Circuit) { c.AppendCond(gate.NewT(1), circuit.Condition{Width: 1, Value: 1}) },
		"barrier": func(c *circuit.Circuit) { c.Barrier() },
		"cap":     func(c *circuit.Circuit) { c.CX(2, 1).CX(3, 1) },
		"cu1":     func(c *circuit.Circuit) { c.CU1(0.2, 1, 2) },
		"cx cond": func(c *circuit.Circuit) { c.AppendCond(gate.NewCX(2, 3), circuit.Condition{Width: 1, Value: 1}) },
	}
	for name, closer := range closers {
		r := mark(true, 5, func(c *circuit.Circuit) {
			c.CX(0, 1).T(1) // P[1] = {0, 1}
			closer(c)
			c.CX(0, 1)
		})
		if len(r) != 0 && r[0].Op == 0 {
			t.Fatalf("%s inside the window: %+v", name, r)
		}
	}
	// At the cap a parity of three qubits still expands: seven terms.
	r := mark(true, 8, func(c *circuit.Circuit) { c.CX(0, 2).CX(1, 2).RZ(0.5, 2).CX(1, 2).CX(0, 2) })
	if len(r) != 1 || len(r[0].Table) != 8 {
		t.Fatalf("parity of three: %+v", r)
	}

	// A walk visits at most maxWindowGates ops: a long stream of windows
	// is cut into runs no longer than that, which still cover it.
	long := circuit.New("long", 2)
	for i := 0; i < 200; i++ {
		long.CX(0, 1).T(1).CX(0, 1)
	}
	covered := 0
	for _, run := range DiagRuns(long, true) {
		if run.Gates > maxWindowGates {
			t.Fatalf("run of %d gates, cap %d", run.Gates, maxWindowGates)
		}
		covered += run.Gates
	}
	if covered != len(long.Ops) {
		t.Fatalf("long stream: runs cover %d of %d ops", covered, len(long.Ops))
	}

	// Without a cx member, Terms is the gates' own normal form, term for
	// term.
	rng := rand.New(rand.NewSource(3))
	var kinds []gate.Kind
	for i := 0; i < gate.NumKinds; i++ {
		if k := gate.Kind(i); k.Diagonal() && k.NumQubits() > 0 {
			kinds = append(kinds, k)
		}
	}
	plain := circuit.New("plain", 9)
	for i := 0; i < 40; i++ {
		k := kinds[rng.Intn(len(kinds))]
		ps := make([]float64, k.NumParams())
		for j := range ps {
			ps[j] = rng.Float64()*4 - 2
		}
		plain.Append(gate.New(k, rng.Perm(9)[:k.NumQubits()], ps...))
	}
	for _, run := range DiagRuns(plain, true) {
		var own []gate.DiagTerm
		for i := run.Op; i < run.Op+run.Gates; i++ {
			own = plain.Ops[i].G.AppendDiagTerms(own)
		}
		if run.ThroughCX || !reflect.DeepEqual(run.Terms(plain.Ops, nil), own) {
			t.Fatalf("run %+v: Terms differ from its gates' normal form", run)
		}
	}

	// A lazy plan remaps before a cx whose target is a rank bit: the
	// window it falls into is dropped, its members run as gates, and the
	// plan's runs stay on consecutive gate steps. A naive plan keeps it.
	win := circuit.New("rank_target", 6).H(0).H(1)
	win.CZ(0, 1).CX(0, 5).T(5).CX(0, 5)
	for _, pol := range []sched.Policy{sched.Naive, sched.Lazy} {
		cp, st, err := Compile(win, Config{Fuse: true, Sched: pol, PEs: 4})
		if err != nil {
			t.Fatal(err)
		}
		kept := 1
		if pol == sched.Lazy {
			kept = 0
		}
		if st.DiagRuns != kept || st.ThroughCX != kept || len(cp.Runs) != kept {
			t.Fatalf("%s: %d runs (%d through cx), want %d", pol, st.DiagRuns, st.ThroughCX, kept)
		}
	}

	// A window opening with a cx onto a qubit above the tile is one
	// position-free member of a tiled group, not a straddler.
	wide := circuit.New("wide", 16).H(0).H(1)
	wide.CX(0, 15).T(15).CX(0, 15).H(1)
	cp, _, err := Compile(wide, Config{Fuse: true, TileBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cp.Tiles.Straddlers != 0 || len(cp.Runs) != 1 || !cp.Tiles.Groups[len(cp.Tiles.Groups)-1].Tiled {
		t.Fatalf("window on a high target: %d straddlers, runs %+v, groups %+v", cp.Tiles.Straddlers, cp.Runs, cp.Tiles.Groups)
	}
	unfused, _, err := Compile(wide, Config{TileBits: 4})
	if err != nil {
		t.Fatal(err)
	}
	if unfused.Tiles.Straddlers != 2 {
		t.Fatalf("unfused: %d straddlers, want the two cx", unfused.Tiles.Straddlers)
	}
}

// TestThroughCXLoweredSuite: on every lowered suite circuit under every
// schedule and fleet size, a fused plan's runs sit on consecutive gate
// steps in stream order, a lazy plan's are the rule's windows less the
// ones a remap falls into, and its stats count them.
func TestThroughCXLoweredSuite(t *testing.T) {
	for _, e := range qasmbench.All() {
		c := e.Build()
		for _, pol := range []sched.Policy{sched.Naive, sched.Lazy} {
			for _, pes := range []int{1, 4} {
				cp, st, err := Compile(c, Config{Fuse: true, Sched: pol, PEs: pes})
				if err != nil {
					t.Fatal(err)
				}
				if rs := runCounts(cp.Runs); rs.DiagRuns != st.DiagRuns || rs.ThroughCX != st.ThroughCX || rs.Merged != st.Merged {
					t.Fatalf("%s %s x%d: stats %+v count other runs", e.Name, pol, pes, st)
				}
				end := 0
				for _, run := range cp.Runs {
					if run.Step < end {
						t.Fatalf("%s %s x%d: run %+v overlaps the one before", e.Name, pol, pes, run)
					}
					for i := 0; i < run.Gates; i++ {
						if s := cp.Plan.Steps[run.Step+i]; s.Kind != sched.StepGate || s.Op != run.Op+i {
							t.Fatalf("%s %s x%d: step %d of run %+v is %+v", e.Name, pol, pes, run.Step+i, run, s)
						}
					}
					end = run.Step + run.Gates
				}
				if pol == sched.Naive && st.Gadgets == 0 && !reflect.DeepEqual(shape(cp.Runs), shape(DiagRuns(cp.Circuit, true))) {
					t.Fatalf("%s naive x%d: the plan's runs are not the rule's", e.Name, pes)
				}
			}
		}
	}
}
