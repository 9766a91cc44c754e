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
}

// iter pins the bits of ones to 1 and the bits of zeros to 0. Pinned
// bits above the window are resolved against base: a mismatch leaves
// nothing to visit. The window's share (part of parts) of the compressed
// space is cut here, so kernels never see the split.
func (w window) iter(ones, zeros int) iter {
	in := len(w.re) - 1
	if w.base&ones != ones&^in || w.base&zeros != 0 {
		return iter{}
	}
	it := iter{re: w.re, im: w.im, fixed: (ones | zeros) & in, val: ones & in}
	total := len(w.re) >> uint(bits.OnesCount(uint(it.fixed)))
	lo, hi := 0, total
	if w.parts > 1 {
		lo, hi = total*w.part/w.parts, total*(w.part+1)/w.parts
	}
	it.cur, it.left = lo, hi-lo
	for m := it.fixed; m != 0; m &= m - 1 {
		it.cur = InsertZeroBit(it.cur, bits.TrailingZeros(uint(m)))
	}
	it.inc = ^it.fixed & (it.fixed + 1)
	it.sh = uint(bits.TrailingZeros(uint(it.inc)))
	it.step = it.inc
	if w.style == Vectorized {
		it.step = len(w.re)
		if above := it.fixed &^ (it.inc - 1); above != 0 {
			it.step = above & -above
		}
	}
	return it
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

// simd reports whether the runs of it go to the AVX2 run bodies (run_amd64.s):
// unit stride and runs long enough for one four-amplitude step. A pinned
// bit 0, a target on qubit 0 or 1 and the whole Scalar style (runs of one)
// stay in the bodies' Go loops. A body asks once per call.
func (it *iter) simd() bool {
	return haveAVX2 && it.inc == 1 && it.step >= 4
}

// at returns the addresses of amplitude p's two components after
// bounds-checking the n amplitudes from p, which is all the checking an
// AVX2 run body's operands get.
func (it *iter) at(p, n int) (re, im *float64) {
	_, _ = it.re[p+n-1], it.im[p+n-1]
	return &it.re[p], &it.im[p]
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
	case gate.Z:
		return w.iter(ones|a, 0).z()
	case gate.S:
		return w.iter(ones|a, 0).s()
	case gate.SDG:
		return w.iter(ones|a, 0).sdg()
	case gate.T:
		return w.iter(ones|a, 0).t()
	case gate.TDG:
		return w.iter(ones|a, 0).tdg()
	case gate.U1, gate.GPHASE:
		return w.iter(ones|a, 0).phase(math.Cos(p[0]), math.Sin(p[0]))
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
