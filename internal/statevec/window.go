package statevec

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"svsim/internal/gate"
)

// This file is the one kernel core every executor applies gates through
// (paper §3.2.1: one set of specialized kernels, one homogeneous pass).
// A kernel runs on a window: an aligned power-of-two span
// [base, base+2^w) of the global index space backed by a slice. The full
// state is the window with base 0, a cache tile is s.Re[lo:hi] with base
// lo, a PE's partition is its whole slice with base rank*S, and a pool
// worker takes one share of the gate's compressed iteration space.
//
// The window rule: an operand bit at or above w is resolved once per
// call against base — a control there makes the window wholly active or
// skipped, a diagonal kind's target there picks the window's constant
// phase — and every pairing (non-diagonal) target must lie below w,
// which compile.BuildTilePlan and the distributed executors' locality
// test guarantee. Controlled kinds are their base kind's body plus a
// control mask pinned in the enumerator, so every gate kind has exactly
// one arithmetic and every executor rounds identically.

// window is one kernel call's view of the state.
type window struct {
	re, im      []float64   // the span's amplitudes; len is a power of two
	base        int         // global index of re[0], a multiple of len(re)
	style       KernelStyle // loop shape
	part, parts int         // share of the compressed space; parts <= 1 is all of it
}

// window returns the span [lo, hi) of the state as a kernel window.
func (s *State) window(lo, hi int) window {
	return window{re: s.Re[lo:hi], im: s.Im[lo:hi], base: s.Base + lo, style: s.Style}
}

// iter enumerates the window indices whose pinned bits hold their pinned
// values — a gate's compressed iteration space — as constant-stride runs.
// Stepping adds the run's span to the index with the pinned bits forced
// to one, so the carry skips them: no per-index mask test, and no index
// arithmetic inside a run.
type iter struct {
	re, im     []float64
	fixed, val int  // pinned bit positions inside the window, and their values
	inc        int  // stride inside a run: the lowest free bit (1 unless bit 0 is pinned)
	sh         uint // log2(inc)
	step       int  // span of a run: inc (Scalar) or the lowest pinned bit above inc (Vectorized)
	cur, left  int  // next index with pinned bits clear; indices still to visit
	twin       bool // a body hands its whole 4-amplitude blocks to its AVX2 twin (iter.blocks)
}

// iter pins the bits of ones to 1 and the bits of zeros to 0. Pinned
// bits above the window are resolved against base: a mismatch leaves
// nothing to visit. The window's share (part of parts) of the compressed
// space is cut here, so kernels never see the split. Cuts fall on
// multiples of four compressed indices, so an aligned 4-amplitude block
// never straddles two shares: a body twin stores whole blocks, and each
// has one owner.
func (w window) iter(ones, zeros int) iter {
	in := len(w.re) - 1
	if w.base&ones != ones&^in || w.base&zeros != 0 {
		return iter{}
	}
	it := iter{re: w.re, im: w.im, fixed: (ones | zeros) & in, val: ones & in}
	total := len(w.re) >> uint(bits.OnesCount(uint(it.fixed)))
	lo, hi := 0, total
	if w.parts > 1 {
		lo = total * w.part / w.parts &^ 3
		if w.part+1 < w.parts {
			hi = total * (w.part + 1) / w.parts &^ 3
		}
	}
	it.cur, it.left = lo, hi-lo
	for m := it.fixed; m != 0; m &= m - 1 {
		it.cur = InsertZeroBit(it.cur, bits.TrailingZeros(uint(m)))
	}
	it.shape(w.style == Vectorized)
	it.twin = haveAVX2 && w.style == Vectorized && it.fixed&3 != 3 && len(w.re) >= 4
	return it
}

// shape sets the run geometry of it's pinned bits: the stride, and the
// span of a run in the loop style vec (Vectorized) or not.
func (it *iter) shape(vec bool) {
	it.inc = ^it.fixed & (it.fixed + 1)
	it.sh = uint(bits.TrailingZeros(uint(it.inc)))
	it.step = it.inc
	if vec {
		it.step = len(it.re)
		if above := it.fixed &^ (it.inc - 1); above != 0 {
			it.step = above & -above
		}
	}
}

// next returns the next run of visited indices: p, p+inc, ... below end.
// Small enough to inline into the kernels' loops.
func (it *iter) next() (p, end int) {
	span := it.step - it.cur&(it.step-1)
	if rest := it.left << it.sh; span > rest {
		span = rest
	}
	it.left -= span >> it.sh
	p = it.cur | it.val
	it.cur = ((it.cur | it.fixed) + span) &^ it.fixed
	return p, p + span
}

// simd reports whether the runs of it go to the Pauli rotation's AVX2
// twin (run_amd64.s): unit stride and runs long enough for one
// four-amplitude step. A body asks once per call.
func (it *iter) simd() bool {
	return haveAVX2 && it.inc == 1 && it.step >= 4
}

// blockLanes is the per-call part of a body twin's operands
// (run_amd64.go), which walks whole aligned 4-amplitude blocks. Mode 0
// (run: bits 0 and 1 free) pairs every lane of a block with the same
// lane of the partner block delta away. Modes 1 and 2 pair the lanes of
// two visited blocks over bit 0 or 1: the target is the one low pin, so
// every lane is visited or a partner. Mode 3 (masked) is for a control
// (or a SWAP or RXX operand) on the low pin: block p and its partner
// block at p+delta, perm the VPERMD indices that bring partner lane
// l^(x&3) to lane l, and keep[0], keep[1] all ones on the lanes of the
// block and of the partner block that the gate leaves, which the twin
// blends back in before it stores.
type blockLanes struct {
	mode, delta int
	perm        [8]uint32
	keep        [2][4]uint64
}

// blocks returns the walk of a twin call (iter.twin) over its aligned
// 4-amplitude blocks — it with bits 0 and 1 pinned to 0 as well — and
// the lanes its twin computes: a visited index p pairs with p+d (d = 0
// for the element-wise phase). A call that pins both bits visits one
// amplitude (pair) of every four, which the Go loop strides over faster
// than a twin can gather and blend it, so it is never a twin call.
// Every block a share visits is whole, as shares are cut on multiples
// of four compressed indices.
func (it iter) blocks(d int) (iter, blockLanes) {
	lo, lv := it.fixed&3, it.val&3
	x := (it.val + d) ^ it.val // p+d = p^x: d only flips pinned bits
	l := blockLanes{delta: (it.val^x)&x&^3 - it.val&x&^3}
	switch {
	case lo == 0:
	case x == lo:
		l.mode = x
	default:
		l.mode = 3
		for lane := range 4 {
			src := lane ^ x&3
			l.perm[2*lane], l.perm[2*lane+1] = uint32(2*src), uint32(2*src+1)
			if lane&lo != lv {
				l.keep[0][lane] = ^uint64(0)
			}
			if src&lo != lv {
				l.keep[1][lane] = ^uint64(0)
			}
		}
	}
	it.left >>= 2 - bits.OnesCount(uint(lo))
	it.fixed |= 3
	it.val &^= 3
	it.shape(true)
	return it, l
}

// reach bounds-checks the blocks of the run [p, end) and their partners
// delta away, which is all the checking a body twin's operands get, and
// returns the window's first amplitude, from which the twin indexes.
func (it *iter) reach(p, end, delta int) (re, im *float64) {
	last := end - it.inc + 3
	_, _, _, _ = it.re[p], it.re[last], it.re[p+delta], it.re[last+delta]
	_, _, _, _ = it.im[p], it.im[last], it.im[p+delta], it.im[last+delta]
	return &it.re[0], &it.im[0]
}

// apply executes one unitary gate on the window with its kind's kernel
// and returns the amplitudes and flops visited. Pairing kernels pin the
// target bit to 0 and reach the partner at p+d; element-wise kernels pin
// it to 1.
func (w window) apply(g *gate.Gate) (amps, flops int64) {
	nc := g.Kind.NumControls()
	var ones, tmask int
	var t [2]int
	for _, q := range g.Qubits[:nc] {
		ones |= 1 << uint(q)
	}
	for i, q := range g.Qubits[nc:g.NQ] {
		tmask |= 1 << uint(q)
		if i < len(t) {
			t[i] = 1 << uint(q)
		}
	}
	if tmask >= len(w.re) && !g.Kind.Diagonal() {
		return w.diagonal(g, ones)
	}
	a, b, p := t[0], t[1], g.Params
	switch g.Kind.BaseKind() {
	case gate.ID, gate.BARRIER:
		return 0, 0
	case gate.X:
		return w.iter(ones, a).x(a)
	case gate.SWAP:
		return w.iter(ones|a, b).x(b - a)
	case gate.Y:
		return w.iter(ones, a).y(a)
	case gate.H:
		return w.iter(ones, a).h(a)
	case gate.SX:
		return w.iter(ones, a).sx(a, false)
	case gate.SXDG:
		return w.iter(ones, a).sx(a, true)
	case gate.RX:
		return w.iter(ones, a).rx(a, p[0])
	case gate.RY:
		return w.iter(ones, a).ry(a, p[0])
	case gate.U3:
		return w.iter(ones, a).u2(a, u3Coeffs(p[0], p[1], p[2]))
	case gate.U2:
		return w.iter(ones, a).u2(a, u3Coeffs(math.Pi/2, p[0], p[1]))
	case gate.Z, gate.S, gate.SDG, gate.T, gate.TDG, gate.U1, gate.GPHASE:
		// One normal-form term on the amplitudes with every operand bit
		// set: the factor a one-gate diagonal run multiplies them by.
		var buf [gate.MaxDiagTerms]gate.DiagTerm
		f := g.AppendDiagTerms(buf[:0])[0]
		return w.iter(ones|a, 0).phase(f.Re, f.Im)
	case gate.RZ:
		// e^{-i t/2} where the target bit is 0, e^{i t/2} where it is 1.
		c, sn := math.Cos(p[0]/2), math.Sin(p[0]/2)
		a0, f0 := w.iter(ones, a).phase(c, -sn)
		a1, f1 := w.iter(ones|a, 0).phase(c, sn)
		return a0 + a1, f0 + f1
	case gate.RZZ:
		// Phase e^{i t} on |01> and |10>.
		c, sn := math.Cos(p[0]), math.Sin(p[0])
		a0, f0 := w.iter(a, b).phase(c, sn)
		a1, f1 := w.iter(b, a).phase(c, sn)
		return a0 + a1, f0 + f1
	case gate.RXX:
		// The rx rotation on the (|00>,|11>) and the (|01>,|10>) pairs.
		a0, f0 := w.iter(0, a|b).rx(a+b, p[0])
		a1, f1 := w.iter(a, b).rx(b-a, p[0])
		return a0 + a1, f0 + f1
	case gate.RCCX:
		return w.matrix(relPhaseToffoli(&rccxOnce, &rccxU, gate.NewRCCX(0, 1, 2)), g.OperandQubits())
	case gate.RC3X:
		return w.matrix(relPhaseToffoli(&rc3xOnce, &rc3xU, gate.NewRC3X(0, 1, 2, 3)), g.OperandQubits())
	}
	panic(fmt.Sprintf("statevec: cannot apply kind %s", g.Kind))
}

// The relative-phase Toffolis have fixed (parameter-free) unitaries defined
// by their qelib1 decompositions; compute them once and reuse.
var (
	rccxOnce, rc3xOnce sync.Once
	rccxU, rc3xU       gate.Matrix
)

// relPhaseToffoli returns the unitary of g, computed on first use.
func relPhaseToffoli(once *sync.Once, u *gate.Matrix, g gate.Gate) gate.Matrix {
	once.Do(func() { *u = gate.Unitary(g) })
	return *u
}

// diagonal applies a gate of a pairing kind whose target lies above the
// window. That is only legal when this binding's unitary happens to be
// diagonal (u3(0,phi,lambda), rx(0), ...): the schedulers, which classify
// per binding, then place no locality demand on it. It is the one
// class-generic diagonal loop in the repo.
func (w window) diagonal(g *gate.Gate, ones int) (amps, flops int64) {
	cls := gate.Classify(g)
	if !cls.Diag {
		panic(fmt.Sprintf("statevec: %s couples amplitudes across the %d-amplitude window", g, len(w.re)))
	}
	it := w.iter(ones, 0)
	re, im := it.re, it.im
	m := int64(it.left)
	for it.left > 0 {
		for p, end := it.next(); p < end; p += it.inc {
			sub := 0
			for j, t := range cls.Targets {
				sub |= (w.base + p) >> uint(t) & 1 << uint(j)
			}
			f := cls.U.At(sub, sub)
			fr, fi := real(f), imag(f)
			r, i := re[p], im[p]
			re[p] = fr*r - fi*i
			im[p] = fi*r + fr*i
		}
	}
	return m, 6 * m
}
