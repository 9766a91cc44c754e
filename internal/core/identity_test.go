package core

import (
	"fmt"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/compile"
	"svsim/internal/gate"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
	"svsim/internal/statevec"
)

// TestBackendsBitIdenticalToSingle pins the consequence of the one
// kernel core and the one step loop: a pool worker's share, a tile and a
// PE's partition are windows of the state running the same arithmetic,
// so the one-rank grid (single and threaded, per-gate and tiled, any
// worker count, fused or not) reproduces a plain per-gate State.Apply replay
// of its executable stream, and the lazy scale-out backend the
// single-device state, exactly — MaxAbsDiff == 0, not a
// tolerance — on every unitary-only medium-suite circuit and a random
// quantum circuit. The reference is replayPlan: the compiled stream — a
// diagonal run is part of it, one pass with logically indexed tables — on
// a plain State, so the cells are compared to an executor-free state, not
// to each other; QFT(12) at 8 lazy PEs has runs whose operands sit in the
// rank bits. Circuits with MEASURE/RESET are compared below on the cells
// whose probability reduction is layout-independent.
func TestBackendsBitIdenticalToSingle(t *testing.T) {
	circuits := []*circuit.Circuit{qasmbench.RQC(12, 16, 1), qasmbench.QFT(12)}
	for _, e := range qasmbench.Medium() {
		if c := e.Compact(); c.UnitaryOnly() && (!testing.Short() || c.NumQubits <= 12) {
			circuits = append(circuits, c)
		}
	}
	type variant struct {
		name string
		run  func(c *circuit.Circuit) (*Result, error)
	}
	var variants, fused []variant
	for _, tile := range []bool{false, true} {
		for _, fuse := range []bool{false, true} {
			cells := &variants
			if fuse {
				cells = &fused
			}
			cfg := Config{TileBits: tileBitsIf(tile, 3), Fuse: fuse}
			*cells = append(*cells, variant{
				fmt.Sprintf("single tile=%v fuse=%v", tile, fuse),
				func(c *circuit.Circuit) (*Result, error) { return NewSingleDevice(cfg).Run(c) },
			})
			for _, workers := range []int{1, 2, 3} {
				cfg := Config{PEs: workers, TileBits: tileBitsIf(tile, 3), Fuse: fuse}
				*cells = append(*cells, variant{
					fmt.Sprintf("threaded workers=%d tile=%v fuse=%v", workers, tile, fuse),
					func(c *circuit.Circuit) (*Result, error) { return Run("threaded", cfg, c) },
				})
			}
		}
	}
	for _, pes := range []int{2, 4, 8} {
		cfg := Config{PEs: pes, Sched: sched.Lazy}
		variants = append(variants, variant{
			fmt.Sprintf("scale-out pes=%d lazy", pes),
			func(c *circuit.Circuit) (*Result, error) { return NewScaleOut(cfg).Run(c) },
		})
	}
	// replay executes a compiled plan's stream — its gates one by one,
	// its diagonal runs as one pass each — on a plain State with no
	// executor at all: the reference the cells must reproduce.
	replay := func(c *circuit.Circuit, fuse bool) *statevec.State {
		cp, _, err := compile.Compile(c, compile.Config{Fuse: fuse})
		if err != nil {
			t.Fatal(err)
		}
		st, _ := replayPlan(cp, 0)
		return st
	}
	check := func(c *circuit.Circuit, want *statevec.State, cells []variant) {
		for _, v := range cells {
			got, err := v.run(c)
			if err != nil {
				t.Fatalf("%s on %s: %v", v.name, c.Name, err)
			}
			if d := got.State.MaxAbsDiff(want); d != 0 {
				t.Errorf("%s on %s: deviates from the replay by %g, want bit-identical", v.name, c.Name, d)
			}
		}
	}
	for _, c := range circuits {
		check(c, replay(c, false), variants)
		check(c, replay(c, true), fused)
	}
}

// TestRunsCutByConditionAndMeasure: a diagonal stretch interrupted by a
// conditional gate and by a MEASURE is separate runs with the
// interrupting ops between them, and every cell whose measured probability does not
// depend on the layout — the one-rank grid and the naive plan at any
// fleet size — reproduces the executor-free replay exactly, classical
// bits included.
func TestRunsCutByConditionAndMeasure(t *testing.T) {
	const n, seed = 6, 9
	c := circuit.New("cut_runs", n)
	c.NumClbits = 2
	for q := 0; q < n; q++ {
		c.H(q).RY(0.4+0.3*float64(q), q)
	}
	ladder := func(tgt int) {
		for q := 0; q < n; q++ {
			if q != tgt {
				c.CU1(0.2+0.1*float64(q), q, tgt)
			}
		}
	}
	ladder(5)
	c.T(1).RZ(0.7, 2)
	c.Measure(0, 0)
	ladder(4)
	c.RZZ(0.3, 1, 3)
	c.AppendCond(gate.NewZ(2), circuit.Condition{Offset: 0, Width: 1, Value: 1})
	c.CRZ(1.1, 3, 5).S(4).CZ(0, 2)
	c.Measure(3, 1)
	c.AppendCond(gate.NewU1(0.9, 1), circuit.Condition{Offset: 0, Width: 2, Value: 3})
	c.H(2)

	cp, _, err := compile.Compile(c, compile.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Before the MEASURE (two runs: six qubits overflow two 3-qubit
	// tables), between it and the conditional Z, and after the Z.
	if len(cp.Runs) != 4 {
		t.Fatalf("want the stretch cut into 4 runs, got %+v", cp.Runs)
	}
	for _, run := range cp.Runs {
		for _, op := range c.Ops[run.Op : run.Op+run.Gates] {
			if op.Cond != nil || !op.G.Kind.Diagonal() {
				t.Fatalf("run %+v holds %s", run, op.G)
			}
		}
	}
	want, cbits := replayPlan(cp, seed)
	cells := map[string]Backend{}
	for _, tile := range []bool{false, true} {
		cells[fmt.Sprintf("single tile=%v", tile)] = NewSingleDevice(Config{Seed: seed, TileBits: tileBitsIf(tile, 3)})
		cells[fmt.Sprintf("threaded tile=%v", tile)] = &backend{name: "threaded", cfg: Config{Seed: seed, PEs: 3, TileBits: tileBitsIf(tile, 3)}}
	}
	for _, pes := range []int{2, 4, 8} {
		cells[fmt.Sprintf("scale-out pes=%d", pes)] = NewScaleOut(Config{Seed: seed, PEs: pes})
		cells[fmt.Sprintf("scale-out pes=%d coalesced", pes)] = NewScaleOut(Config{Seed: seed, PEs: pes, Coalesced: true})
	}
	for name, b := range cells {
		got, err := b.Run(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := got.State.MaxAbsDiff(want); d != 0 || got.Cbits != cbits {
			t.Errorf("%s: deviates from the replay by %g (cbits %b, want %b)", name, d, got.Cbits, cbits)
		}
	}
}

// TestMergedRunsMatchBarrierSeparated: executing a circuit with its
// diagonal runs merged agrees within 1e-12 with the same circuit whose
// every run is forced open by BARRIERs (one between any two ops), on
// every unitary medium-suite circuit and RQC(12,16).
func TestMergedRunsMatchBarrierSeparated(t *testing.T) {
	circuits := []*circuit.Circuit{qasmbench.RQC(12, 16, 1)}
	for _, e := range qasmbench.Medium() {
		if c := e.Compact(); c.UnitaryOnly() && (!testing.Short() || c.NumQubits <= 12) {
			circuits = append(circuits, c)
		}
	}
	merged := 0
	for _, c := range circuits {
		open := circuit.New(c.Name, c.NumQubits)
		for _, op := range c.Ops {
			open.Ops = append(open.Ops, op)
			open.Barrier()
		}
		got, err := NewSingleDevice(Config{}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewSingleDevice(Config{}).Run(open)
		if err != nil {
			t.Fatal(err)
		}
		if want.Compile.DiagRuns != 0 {
			t.Fatalf("%s: %d runs survive a BARRIER between every two ops", c.Name, want.Compile.DiagRuns)
		}
		merged += got.Compile.Merged
		if d := got.State.MaxAbsDiff(want.State); d > 1e-12 {
			t.Errorf("%s: merged deviates from forced-open by %g", c.Name, d)
		}
	}
	if merged == 0 {
		t.Fatal("no circuit of the suite formed a run")
	}
}

// replayPlan is the executor-free reference of the identity tests: the
// compiled stream applied to |0...0> through statevec alone — a gate by
// State.Apply, a diagonal run by DiagTables.Prepare + State.ApplyRun
// under the identity layout, MEASURE and RESET by ProbOne/Project with
// the backends' seeded draw.
func replayPlan(cp *compile.CompiledPlan, seed int64) (*statevec.State, uint64) {
	c := cp.Circuit
	st := statevec.New(c.NumQubits)
	perm := circuit.IdentityPermutation(c.NumQubits)
	rng := newRNG(seed)
	var cbits uint64
	var tables statevec.DiagTables
	measure := func(q int) int {
		p1 := st.ProbOne(q)
		outcome := 0
		if rng.Float64() < p1 {
			outcome = 1
		}
		st.Project(q, outcome, p1)
		return outcome
	}
	runs := cp.Runs
	for i := 0; i < len(c.Ops); i++ {
		if len(runs) > 0 && runs[0].Op == i {
			run := &runs[0]
			tables.Prepare(run.Gates, run.Pinned, run.Qubits, run.Terms(c.Ops, nil), run.Table, perm)
			st.ApplyRun(&tables)
			i += run.Gates - 1
			runs = runs[1:]
			continue
		}
		op := &c.Ops[i]
		if !condSatisfied(op.Cond, cbits) {
			continue
		}
		switch g := &op.G; g.Kind {
		case gate.MEASURE:
			cbits = setCbit(cbits, int(g.Cbit), measure(int(g.Qubits[0])))
		case gate.RESET:
			if measure(int(g.Qubits[0])) == 1 {
				x := gate.NewX(int(g.Qubits[0]))
				st.Apply(&x)
			}
		default:
			st.Apply(g)
		}
	}
	return st, cbits
}
