package core

import (
	"math/bits"

	"svsim/internal/circuit"
	"svsim/internal/gate"
	"svsim/internal/statevec"
)

// GroupWindow is one rank's view of a remote gate's exchange group: the
// ranks that differ only in the gate's global pairing-target bits. Their
// partitions side by side, ordered by those bits, form a window of the
// state in which every pairing target is local, so the gate runs there
// on the one kernel core (statevec/window.go). The relabelling is a
// Permutation: local bits stay, the global targets move right above them
// and every other rank bit above the window, where State.Base resolves
// it. Filling the slots is the transport's business — the traffic the
// paper compares.
type GroupWindow struct {
	Peers []int // the rank whose partition fills each slot, in window order
	Slot  int   // the calling rank's own slot

	win statevec.State
	g   gate.Gate // the gate at its window positions
}

// GroupWindow lays out rank r's window for the physical gate pg over
// *buf, which it grows to hold the group's partitions.
func (g *Grid) GroupWindow(r *Rank, pg *gate.Gate, buf *[]float64) *GroupWindow {
	var tmask int // the global pairing targets, as rank bits
	for _, t := range pg.Targets() {
		tmask |= 1 << uint(t) >> uint(g.LocalBits)
	}
	k := bits.OnesCount(uint(tmask))
	perm := relabel(g.N, tmask<<uint(g.LocalBits), (g.P-1)&^tmask<<uint(g.LocalBits), g.LocalBits)
	gw := &GroupWindow{Peers: make([]int, 1<<uint(k)), g: perm.PhysicalGate(pg)}
	// Counting through the settings of the target bits counts through the
	// slots: the targets keep their order.
	rank, sub := r.Local.Base/g.S, 0
	for j := range gw.Peers {
		gw.Peers[j] = rank&^tmask | sub
		if sub == rank&tmask {
			gw.Slot = j
		}
		sub = (sub - tmask) & tmask
	}
	w := g.S << uint(k)
	b := scratch(buf, 2*w)
	gw.win = statevec.State{N: g.LocalBits + k, Dim: w, Re: b[:w], Im: b[w : 2*w],
		Base: perm.PhysicalIndex(r.Local.Base) &^ (w - 1), Style: r.Local.Style}
	return gw
}

// relabel returns the relabelling that moves the bits of first and then
// those of rest, each in ascending order, to the positions from at up;
// every other entry is the identity.
func relabel(n, first, rest, at int) circuit.Permutation {
	perm := circuit.IdentityPermutation(n)
	for _, m := range [2]int{first, rest} {
		for ; m != 0; m &= m - 1 {
			perm[bits.TrailingZeros(uint(m))] = at
			at++
		}
	}
	return perm
}

// scratch returns *buf, grown to at least n floats.
func scratch(buf *[]float64, n int) []float64 {
	if len(*buf) < n {
		*buf = make([]float64, n)
	}
	return *buf
}

// Planes returns the spans of the window that hold slot's partition.
func (gw *GroupWindow) Planes(slot int) (re, im []float64) {
	s := gw.win.Dim / len(gw.Peers)
	return gw.win.Re[slot*s:][:s], gw.win.Im[slot*s:][:s]
}

// Apply runs the gate on the filled window and keeps the calling rank's
// slice of the result. Every member of the group computes the same
// window, so r is charged its share of the kernel's work.
func (gw *GroupWindow) Apply(r *Rank) {
	amps, flops := gw.win.ApplyTile(&gw.g, 0, gw.win.Dim)
	re, im := gw.Planes(gw.Slot)
	copy(r.Local.Re, re)
	copy(r.Local.Im, im)
	n := int64(len(gw.Peers))
	r.chargeRemote(amps/n, flops/n)
}

// chargeRemote books one remote gate into Extra: its kernel ran on a
// scratch window, outside Local's counters, and swept no partition.
func (r *Rank) chargeRemote(amps, flops int64) {
	r.Extra.AddTileWork(1, amps, flops)
	r.Extra.BytesTouched += amps * 16
}
