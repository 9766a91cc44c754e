package compile

import (
	"math/rand"
	"reflect"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/gate"
	"svsim/internal/sched"
)

// spliced is random 1q and 2q gates with ExpPauli windows spliced in and
// a few h·h pairs: gates the source stream demands locality for and the
// fused one does not, so the final lazy plan remaps elsewhere than the
// provisional one did — now and then inside a marked window.
func spliced(rng *rand.Rand, n int) *circuit.Circuit {
	c := circuit.New("spliced", n)
	for k := 0; k < 10; k++ {
		for i := rng.Intn(6); i > 0; i-- {
			p := rng.Perm(n)
			switch rng.Intn(4) {
			case 0:
				c.H(p[0]).H(p[0])
			case 1:
				c.RY(rng.Float64(), p[0])
			case 2:
				c.CX(p[0], p[1])
			default:
				c.CU1(rng.Float64(), p[0], p[1])
			}
		}
		var terms []circuit.PauliTerm
		for _, q := range rng.Perm(n)[:2+rng.Intn(n-1)] {
			terms = append(terms, circuit.PauliTerm{P: []circuit.Pauli{'X', 'Y', 'Z'}[rng.Intn(3)], Q: q})
		}
		c.ExpPauli(rng.Float64(), terms)
	}
	return c
}

// TestGadgetRunsInThePlan: the gadgets fusion marks become runs of the
// plan under every schedule, fleet size and tiling — in stream order, not
// overlapping each other or a diagonal run, each on its own consecutive
// gate steps (a gadget a remap falls into is dropped, never split), each
// a tile group of its own — and only under Fuse: an unfused plan's runs
// are DiagRuns of its source, as before.
func TestGadgetRunsInThePlan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	circuits := []*circuit.Circuit{uccsd(6, 5), qaoaAnsatz(8, randomParams(rng, 7))}
	for i := 0; i < 30; i++ {
		circuits = append(circuits, spliced(rng, 6))
	}
	dropped := 0
	for _, c := range circuits {
		for _, pol := range []sched.Policy{sched.Naive, sched.Lazy} {
			for _, pes := range []int{1, 2, 4} {
				for _, tile := range []bool{false, true} {
					plain, pst, err := Compile(c, Config{Sched: pol, PEs: pes, Tile: tile})
					if err != nil {
						t.Fatal(err)
					}
					if pst.Gadgets != 0 || !reflect.DeepEqual(shape(plain.Runs), shape(DiagRuns(c))) {
						t.Fatalf("%s %s pes=%d: an unfused plan holds %d gadgets, runs %+v", c.Name, pol, pes, pst.Gadgets, plain.Runs)
					}

					cp, st, err := Compile(c, Config{Fuse: true, Sched: pol, PEs: pes, Tile: tile})
					if err != nil {
						t.Fatal(err)
					}
					diag, merged, gadgets, gadgetGates := countRuns(cp.Runs)
					if st.DiagRuns != diag || st.Merged != merged || st.Gadgets != gadgets || st.GadgetGates != gadgetGates {
						t.Fatalf("%s %s pes=%d: stats %+v do not count the runs %+v", c.Name, pol, pes, st, cp.Runs)
					}
					if gadgets == 0 || gadgets > st.Fusion.Gadgets || len(cp.Plan.Steps) == len(cp.Circuit.Ops) && gadgets != st.Fusion.Gadgets {
						t.Fatalf("%s %s pes=%d: %d gadget runs of %d marked", c.Name, pol, pes, gadgets, st.Fusion.Gadgets)
					}
					dropped += st.Fusion.Gadgets - gadgets
					end := 0
					for _, run := range cp.Runs {
						if run.Step < end {
							t.Fatalf("%s %s pes=%d: run %+v starts inside the run before it", c.Name, pol, pes, run)
						}
						end = run.Step + run.Gates
						for i := 0; i < run.Gates; i++ {
							if s := cp.Plan.Steps[run.Step+i]; s.Kind != sched.StepGate || s.Op != run.Op+i {
								t.Fatalf("%s %s pes=%d: step %d of run %+v is %+v", c.Name, pol, pes, run.Step+i, run, s)
							}
						}
						p := run.Pauli
						if p == nil {
							continue
						}
						if p.First != run.Op || p.Gates() != run.Gates || cp.Circuit.Ops[p.Core].G.Kind != gate.RZ {
							t.Fatalf("%s %s pes=%d: run %+v does not sit on its gadget %+v", c.Name, pol, pes, run, *p)
						}
						if !tile || pes > 1 {
							continue
						}
						own := false
						for _, g := range cp.Tiles.Groups {
							own = own || g == TileGroup{Start: run.Step, End: run.Step + run.Gates}
						}
						if !own {
							t.Fatalf("%s: gadget run %+v is not a tile group of its own", c.Name, run)
						}
					}
				}
			}
		}
	}
	if dropped == 0 {
		t.Fatal("no lazy plan remapped inside a marked window; the drop rule went unexercised")
	}
}

// TestVerbatimPlanExecutesItsSource: when fusion leaves the stream as it
// is (a UCCSD ansatz: gadgets and lone x gates), the plan's executable
// stream is the circuit handed in, cold and on a hit — a hit copies no
// ops.
func TestVerbatimPlanExecutesItsSource(t *testing.T) {
	cfg := Config{Fuse: true, Cache: NewCache(2)}
	for i, hit := range []bool{false, true} {
		c := uccsd(6, int64(20+i))
		cp, st, err := Compile(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st.CacheHit != hit {
			t.Fatalf("compile %d: CacheHit = %v", i, st.CacheHit)
		}
		if cp.Circuit != c || !cp.Fused || len(cp.Spans) != len(c.Ops) || st.Gadgets != 90 {
			t.Fatalf("compile %d: the plan does not execute its source (%d gadgets, fused %v)", i, st.Gadgets, cp.Fused)
		}
	}
	// One fused run and the stream is the pass's own again.
	c := uccsd(6, 22)
	c.H(0).T(0)
	cp, _, err := Compile(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Circuit == c || len(cp.Circuit.Ops) != len(c.Ops)-1 {
		t.Fatalf("a plan with a fused run executes %d ops for %d source ops", len(cp.Circuit.Ops), len(c.Ops))
	}
}

// TestCompileValidates: the skeleton walk is the circuit's validation —
// Compile refuses what circuit.Validate refuses, in Validate's words, and
// a cached skeleton does not let an invalid binding through.
func TestCompileValidates(t *testing.T) {
	good := circuit.New("checked", 3)
	good.NumClbits = 2
	good.H(0).CX(0, 2).Measure(1, 1)
	good.AppendCond(gate.NewX(2), circuit.Condition{Offset: 0, Width: 2, Value: 1})
	cfg := Config{Fuse: true, Cache: NewCache(2)}
	if _, _, err := Compile(good, cfg); err != nil {
		t.Fatal(err)
	}
	for name, breakIt := range map[string]func(c *circuit.Circuit){
		"qubit":        func(c *circuit.Circuit) { c.Ops[1].G.Qubits[1] = 3 },
		"second qubit": func(c *circuit.Circuit) { c.Ops[1].G.Qubits[0] = 7 },
		"cbit":         func(c *circuit.Circuit) { c.Ops[2].G.Cbit = 2 },
		"negative bit": func(c *circuit.Circuit) { c.Ops[2].G.Cbit = -1 },
		"condition":    func(c *circuit.Circuit) { c.Ops[3].Cond.Width = 3 },
		"offset":       func(c *circuit.Circuit) { c.Ops[3].Cond.Offset = -1 },
	} {
		bad := rebound(good, nil)
		cond := *bad.Ops[3].Cond
		bad.Ops[3].Cond = &cond
		breakIt(bad)
		want := bad.Validate()
		if want == nil {
			t.Fatalf("%s: Validate accepts the broken circuit", name)
		}
		for _, cache := range []*Cache{nil, cfg.Cache} {
			if _, _, err := Compile(bad, Config{Fuse: true, Cache: cache}); err == nil || err.Error() != want.Error() {
				t.Fatalf("%s: Compile says %v, Validate says %v", name, err, want)
			}
		}
	}
}
