package statevec

import (
	"math"
	"math/bits"
)

// A Pauli rotation exp(-i theta P / 2), P = ±(a tensor product of I, X,
// Y, Z), is what a basis-change + CX-ladder + RZ + inverse window of a
// circuit multiplies out to (Table 2's Exp; fusion marks such windows as
// Pauli gadgets). It is ONE pass whatever the weight of P: with
// Y = i·X·Z, P sends basis state |j> to ±i^{#Y} (-1)^{popcount(j & z)}
// |j ^ x>, so
//
//	new[j] = cos(theta/2) · a[j] + f · (-1)^{popcount((j^x) & z)} · a[j^x]
//
// with f = -i sin(theta/2) · ±i^{#Y}, a purely real or purely imaginary
// number. The pass pairs j with j^x over the highest X bit (the pivot) and
// costs two multiply-adds per amplitude component — against the 2^k
// complex ones of a dense k-qubit matrix, or the ~4k+1 passes of the
// lowered window.

// PauliRot is exp(-i Theta P / 2) with P given by index-bit masks: bit q
// of X is set where P has X or Y on qubit q, bit q of Z where it has Z or
// Y. Like a gate's operands the masks address the global index space:
// every X bit must lie inside the window the rotation is applied to (it
// pairs amplitudes), a Z bit above it is resolved against State.Base.
type PauliRot struct {
	X, Z  int
	Neg   bool // P carries a minus sign
	Theta float64
	// Gates is how many circuit gates the rotation stands for, charged to
	// Stats.Gates: the members of a gadget window, 1 for a direct call.
	Gates int
}

// pauliRot applies r to the window and returns the amplitudes and flops
// visited. An all-Z string pairs every amplitude with itself: the same
// loop, x = 0, no pivot pinned.
func (w window) pauliRot(r *PauliRot) (amps, flops int64) {
	if r.X >= len(w.re) {
		panic("statevec: Pauli rotation pairs amplitudes across the window")
	}
	c, sn := math.Cos(r.Theta/2), math.Sin(r.Theta/2)
	if r.Neg {
		sn = -sn
	}
	// f = -i·sn·i^{#Y}, negated where the index bits above the window hold
	// odd Z parity.
	ny := bits.OnesCount(uint(r.X & r.Z))
	f := [4][2]float64{{0, -sn}, {sn, 0}, {0, sn}, {-sn, 0}}[ny&3]
	in := len(w.re) - 1
	if bits.OnesCount(uint(w.base&r.Z&^in))&1 == 1 {
		f = [2]float64{-f[0], -f[1]}
	}
	pivot := 0
	if r.X != 0 {
		pivot = 1 << uint(bits.Len(uint(r.X))-1)
	}
	it := w.iter(0, pivot)
	n := int64(it.left)
	it.pauliRot(r.X, r.Z&in, ny&1, c, f)
	if pivot == 0 {
		return n, 12 * n
	}
	return 2 * n, 12 * n
}

// pauliRot is the rotation's run loop: p has the pivot bit clear, q is
// its partner, and the sign each takes from the other is the Z parity of
// the source index — row par of the tables for q's new value, row
// par^odd for p's, odd being #Y mod 2 (the parity of x & z, by which the
// two indices differ). f is purely real or purely imaginary, so f times
// an amplitude is two products, not four: a real f scales the partner's
// components in place, an imaginary one crosses them (ur, ui name the
// arrays the real and imaginary results read).
//
// Like the bodies in kernels.go it hands the 4-aligned part of each run
// to its AVX2 twin. Its 4-chunks P pair with whole 4-chunks
// Q = (P^x) &^ 3 — every X bit but the pivot lies below it — because
// every run starts on a multiple of 4, a pool share's first included:
// shares are cut on multiples of four compressed indices.
func (it iter) pauliRot(x, z, odd int, c float64, f [2]float64) {
	re, im := it.re, it.im
	cross := f[0] == 0
	ur, ui, kr, ki := re, im, f[0], f[0]
	if cross {
		ur, ui, kr, ki = im, re, -f[1], f[1]
	}
	tr, ti := [2]float64{kr, -kr}, [2]float64{ki, -ki}
	simd := it.simd()
	var lanes pauliLanes
	var r0, i0 *float64
	if simd {
		for l := range 4 {
			b := bits.OnesCount(uint(l&z)) & 1
			a := b ^ odd
			lanes.coef[0][l], lanes.coef[1][l], lanes.coef[2][l], lanes.coef[3][l] = tr[a], ti[a], tr[b], ti[b]
			src := uint32(l ^ x&3)
			lanes.perm[2*l], lanes.perm[2*l+1] = 2*src, 2*src+1
		}
		// The twin indexes the whole window, as partners lie anywhere in
		// it: slicing im to re's length checks that without reading an
		// amplitude, which another pool share may be writing (indexing
		// the last one would read it).
		r0, i0 = &re[0], &im[:len(re)][0]
	}
	for it.left > 0 {
		p, end := it.next()
		if n := (end - p) &^ 3; simd && n > 0 {
			pauliRotAVX2(r0, i0, p, n, x, z&^3, c, &lanes, cross)
			p += n
		}
		for ; p < end; p += it.inc {
			q := p ^ x
			b := bits.OnesCount(uint(p&z)) & 1
			a := b ^ odd
			pr, pi := c*re[p]+tr[a]*ur[q], c*im[p]+ti[a]*ui[q]
			qr, qi := c*re[q]+tr[b]*ur[p], c*im[q]+ti[b]*ui[p]
			re[p], im[p] = pr, pi
			re[q], im[q] = qr, qi
		}
	}
}

// pauliLanes is the per-call part of the AVX2 twin's operands. coef holds
// tr[a], ti[a], tr[b], ti[b] for lane l of a 4-chunk, b being the Z parity
// of l alone; the twin flips their signs by the parity of the chunk's own
// bits. perm holds the VPERMD indices that bring partner lane l ^ (x&3)
// to lane l.
type pauliLanes struct {
	coef [4][4]float64
	perm [8]uint32
}

// addPauliRot charges one executed rotation: the gates it stands for, the
// amplitudes its pass visited, and that one pass as the memory sweep.
func (s *Stats) addPauliRot(r *PauliRot, amps, flops int64) {
	s.AddTileWork(int64(r.Gates), amps, flops)
	s.AddSweep(amps)
}

// ApplyPauliRot executes exp(-i Theta P / 2) on the whole state (or this
// partition of it, see State.Base) as one pass.
func (s *State) ApplyPauliRot(r *PauliRot) {
	amps, flops := s.window(0, s.Dim).pauliRot(r)
	s.Stats.addPauliRot(r, amps, flops)
}

// ApplyPauliRotShared executes the rotation with the pass's compressed
// iteration space cut into one share per worker, like ApplyShared does
// for a gate: bit-identical to ApplyPauliRot at any worker count. Shares
// never conflict: every visited index owns its own amplitude pair.
func (p *Pool) ApplyPauliRotShared(s *State, r *PauliRot) {
	amps, flops := p.ForTiles(p.workers, func(part int) (int64, int64) {
		w := s.window(0, s.Dim)
		w.part, w.parts = part, p.workers
		return w.pauliRot(r)
	})
	s.Stats.addPauliRot(r, amps, flops)
}
