package fusion

import (
	"testing"

	"svsim/internal/circuit"
)

func TestOptimizeBlocksRespectsBoundaries(t *testing.T) {
	// Six RX rotations on one qubit fuse to a single gate — unless a
	// block boundary splits the run, in which case each side fuses
	// independently and no span crosses the boundary.
	c := circuit.New("run", 1)
	for i := 0; i < 6; i++ {
		c.RX(0.2+0.1*float64(i), 0)
	}
	whole, _, _, _ := OptimizeBlocks(c, nil)
	if len(whole.Ops) != 1 {
		t.Fatalf("unbounded run fused to %d gates, want 1", len(whole.Ops))
	}
	split, spans, st, _ := OptimizeBlocks(c, []int{3})
	if len(split.Ops) != 2 {
		t.Fatalf("boundary at 3 produced %d gates, want 2", len(split.Ops))
	}
	for i, s := range spans {
		if s.Crosses(3) {
			t.Fatalf("fused op %d (source %d..%d) crosses the boundary", i, s.First, s.Last)
		}
	}
	if st.InputGates != 6 || st.OutputGates != 2 {
		t.Fatalf("stats %+v inconsistent with the split", st)
	}
}

func TestOptimizeBlocksNeverCancelsAcrossBoundary(t *testing.T) {
	// H·H collapses to nothing when fused freely, but a boundary between
	// the pair models a remap: the two halves execute under different
	// data layouts and must both survive.
	c := circuit.New("hh", 1)
	c.H(0).H(0)
	free, _, _, _ := OptimizeBlocks(c, nil)
	if len(free.Ops) != 0 {
		t.Fatalf("unbounded H·H left %d gates, want 0", len(free.Ops))
	}
	split, spans, _, _ := OptimizeBlocks(c, []int{1})
	if len(split.Ops) != 2 {
		t.Fatalf("boundary between the pair left %d gates, want 2", len(split.Ops))
	}
	for i, s := range spans {
		if s.Crosses(1) {
			t.Fatalf("op %d (source %d..%d) crosses the boundary", i, s.First, s.Last)
		}
	}
}
