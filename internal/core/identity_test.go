package core

import (
	"fmt"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
)

// TestBackendsBitIdenticalToSingle pins the consequence of the one
// kernel core: a pool worker's share, a tile and a PE's partition are
// windows of the state running the same arithmetic, so the threaded
// backend (per-gate and tiled, any worker count) and the lazy scale-out
// backend (flat and two-level) produce the single-device state exactly —
// MaxAbsDiff == 0, not a tolerance — on every unitary-only medium-suite
// circuit and a random quantum circuit. Circuits with MEASURE/RESET are
// compared under a tolerance elsewhere: the cross-PE probability
// reduction sums in a different order.
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
	var variants []variant
	for _, workers := range []int{1, 2, 3} {
		for _, tile := range []bool{false, true} {
			cfg := Config{PEs: workers, Tile: tile}
			variants = append(variants, variant{
				fmt.Sprintf("threaded workers=%d tile=%v", workers, tile),
				func(c *circuit.Circuit) (*Result, error) { return NewThreaded(cfg).Run(c) },
			})
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
	for _, c := range circuits {
		want, err := NewSingleDevice(Config{}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			got, err := v.run(c)
			if err != nil {
				t.Fatalf("%s on %s: %v", v.name, c.Name, err)
			}
			if d := got.State.MaxAbsDiff(want.State); d != 0 {
				t.Errorf("%s on %s: deviates from single by %g, want bit-identical", v.name, c.Name, d)
			}
		}
	}
}
