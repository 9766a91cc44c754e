package core

import (
	"fmt"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/compile"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
	"svsim/internal/statevec"
)

// TestBackendsBitIdenticalToSingle pins the consequence of the one
// kernel core and the one step loop: a pool worker's share, a tile and a
// PE's partition are windows of the state running the same arithmetic,
// so the one-rank grid (single and threaded, per-gate and tiled, any
// worker count, fused or not) reproduces a plain State.ApplyAll replay
// of its executable stream, and the lazy scale-out backend (flat and
// two-level) the single-device state, exactly — MaxAbsDiff == 0, not a
// tolerance — on every unitary-only medium-suite circuit and a random
// quantum circuit. Circuits with MEASURE/RESET are compared under a
// tolerance elsewhere: the cross-PE probability reduction sums in a
// different order.
func TestBackendsBitIdenticalToSingle(t *testing.T) {
	circuits := []*circuit.Circuit{qasmbench.RQC(12, 16, 1)}
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
			cfg := Config{Tile: tile, Fuse: fuse}
			*cells = append(*cells, variant{
				fmt.Sprintf("single tile=%v fuse=%v", tile, fuse),
				func(c *circuit.Circuit) (*Result, error) { return NewSingleDevice(cfg).Run(c) },
			})
			for _, workers := range []int{1, 2, 3} {
				cfg := Config{PEs: workers, Tile: tile, Fuse: fuse}
				*cells = append(*cells, variant{
					fmt.Sprintf("threaded workers=%d tile=%v fuse=%v", workers, tile, fuse),
					func(c *circuit.Circuit) (*Result, error) { return NewThreaded(cfg).Run(c) },
				})
			}
		}
	}
	for _, pes := range []int{2, 4, 8} {
		for _, ppn := range []int{0, 2} {
			cfg := Config{PEs: pes, Sched: sched.Lazy, Topology: sched.Topology{PEsPerNode: ppn}}
			variants = append(variants, variant{
				fmt.Sprintf("scale-out pes=%d lazy ppn=%d", pes, ppn),
				func(c *circuit.Circuit) (*Result, error) { return NewScaleOut(cfg).Run(c) },
			})
		}
	}
	// replay applies an executable stream to |0...0> with no executor at
	// all: the reference the one-rank cells must reproduce.
	replay := func(c *circuit.Circuit) *statevec.State {
		st := statevec.New(c.NumQubits)
		for i := range c.Ops {
			st.Apply(&c.Ops[i].G)
		}
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
		check(c, replay(c), variants)
		cp, _, err := compile.Compile(c, compile.Config{Fuse: true})
		if err != nil {
			t.Fatal(err)
		}
		check(c, replay(cp.Circuit), fused)
	}
}
