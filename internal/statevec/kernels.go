package statevec

import (
	"math"

	"svsim/internal/gate"
)

// The gate arithmetic (paper §3.2.1, "specialized gate implementation"):
// one body per pairing kind, each exploiting its own matrix structure —
// permutation gates move data without arithmetic, and only the generic
// 2x2 pays the full complex cost — and one body, phase, that every
// diagonal kind shares and that touches only the amplitudes the gate
// changes. Every body runs over an iter and returns the amplitudes and
// flops it visited; pairing bodies reach the partner amplitude at p+d.
// Every body inlines the one run loop (for it.left > 0 { for p, end :=
// it.next(); ... }), so no function value is called per amplitude: a
// closure body measured 1.3-3x the ns/amp of the same arithmetic inlined
// (kernels_test.go keeps func literals out of this file).
//
// Listing 2 is the same arithmetic four lanes wide. A Vectorized call on
// an AVX2 CPU that leaves one of bits 0 and 1 free (iter.twin, decided
// once per call) hands every visit to the body's twin in run_amd64.s as
// whole aligned 4-amplitude blocks (iter.blocks): a run of blocks per
// call, with a target on qubit 0 or 1 paired inside the blocks by
// shuffle and a control there blended in. Every other call — both low
// bits pinned, the whole Scalar style, a window under four amplitudes,
// any CPU without AVX2 — runs the body's Go loop. The twin is the loop's
// arithmetic at four lanes, equal to it to the bit, so a body still has
// exactly one Go loop and one result. The diagonal-run pass (diagrun.go)
// and the Pauli rotation (paulirot.go) hand off to their twins in the
// same spirit.

const s2i = math.Sqrt2 / 2

// x swaps each amplitude pair: X and its controlled forms with d the
// target bit, SWAP and CSWAP with d the distance from |01> to |10>.
func (it iter) x(d int) (amps, flops int64) {
	re, im := it.re, it.im
	pairs := int64(it.left)
	if it.twin {
		b, l := it.blocks(d)
		for b.left > 0 {
			p, end := b.next()
			r, i := b.reach(p, end, l.delta)
			xAVX2(r, i, p, end, b.inc, &l)
		}
		return 2 * pairs, 0
	}
	for it.left > 0 {
		for p, end := it.next(); p < end; p += it.inc {
			re[p], re[p+d] = re[p+d], re[p]
			im[p], im[p+d] = im[p+d], im[p]
		}
	}
	return 2 * pairs, 0
}

// y applies Pauli-Y: a0' = -i a1, a1' = i a0.
func (it iter) y(d int) (amps, flops int64) {
	re, im := it.re, it.im
	pairs := int64(it.left)
	if it.twin {
		b, l := it.blocks(d)
		for b.left > 0 {
			p, end := b.next()
			r, i := b.reach(p, end, l.delta)
			yAVX2(r, i, p, end, b.inc, &l)
		}
		return 2 * pairs, 2 * pairs
	}
	for it.left > 0 {
		for p, end := it.next(); p < end; p += it.inc {
			r0, i0 := re[p], im[p]
			r1, i1 := re[p+d], im[p+d]
			re[p], im[p] = i1, -r1
			re[p+d], im[p+d] = -i0, r0
		}
	}
	return 2 * pairs, 2 * pairs
}

// h applies the Hadamard.
func (it iter) h(d int) (amps, flops int64) {
	re, im := it.re, it.im
	pairs := int64(it.left)
	if it.twin {
		b, l := it.blocks(d)
		for b.left > 0 {
			p, end := b.next()
			r, i := b.reach(p, end, l.delta)
			hAVX2(r, i, p, end, b.inc, &l)
		}
		return 2 * pairs, 8 * pairs
	}
	for it.left > 0 {
		for p, end := it.next(); p < end; p += it.inc {
			r0, i0 := re[p], im[p]
			r1, i1 := re[p+d], im[p+d]
			re[p], im[p] = s2i*(r0+r1), s2i*(i0+i1)
			re[p+d], im[p+d] = s2i*(r0-r1), s2i*(i0-i1)
		}
	}
	return 2 * pairs, 8 * pairs
}

// sx applies sqrt(X) = [[1+i, 1-i], [1-i, 1+i]] / 2 in sum/difference
// form: with s = a0+a1 and d = a0-a1, a0' = (s + i d)/2 and
// a1' = (s - i d)/2. The adjoint exchanges the two output rows, so dg
// picks the output slots once, outside the loop.
func (it iter) sx(d int, dg bool) (amps, flops int64) {
	re, im := it.re, it.im
	o0, o1 := 0, d
	if dg {
		o0, o1 = d, 0
	}
	pairs := int64(it.left)
	if it.twin {
		b, l := it.blocks(d)
		for b.left > 0 {
			p, end := b.next()
			r, i := b.reach(p, end, l.delta)
			sxAVX2(r, i, p, end, b.inc, &l, dg)
		}
		return 2 * pairs, 12 * pairs
	}
	for it.left > 0 {
		for p, end := it.next(); p < end; p += it.inc {
			r0, i0 := re[p], im[p]
			r1, i1 := re[p+d], im[p+d]
			sr, si, dr, di := r0+r1, i0+i1, r0-r1, i0-i1
			re[p+o0], im[p+o0] = 0.5*(sr-di), 0.5*(si+dr)
			re[p+o1], im[p+o1] = 0.5*(sr+di), 0.5*(si-dr)
		}
	}
	return 2 * pairs, 12 * pairs
}

// rx applies exp(-i theta X / 2): a0' = c a0 - i s a1, a1' = -i s a0 + c a1.
func (it iter) rx(d int, theta float64) (amps, flops int64) {
	c, sn := math.Cos(theta/2), math.Sin(theta/2)
	re, im := it.re, it.im
	pairs := int64(it.left)
	if it.twin {
		b, l := it.blocks(d)
		for b.left > 0 {
			p, end := b.next()
			r, i := b.reach(p, end, l.delta)
			rxAVX2(r, i, p, end, b.inc, &l, c, sn)
		}
		return 2 * pairs, 12 * pairs
	}
	for it.left > 0 {
		for p, end := it.next(); p < end; p += it.inc {
			r0, i0 := re[p], im[p]
			r1, i1 := re[p+d], im[p+d]
			re[p] = c*r0 + sn*i1
			im[p] = c*i0 - sn*r1
			re[p+d] = c*r1 + sn*i0
			im[p+d] = c*i1 - sn*r0
		}
	}
	return 2 * pairs, 12 * pairs
}

// ry applies exp(-i theta Y / 2).
func (it iter) ry(d int, theta float64) (amps, flops int64) {
	c, sn := math.Cos(theta/2), math.Sin(theta/2)
	re, im := it.re, it.im
	pairs := int64(it.left)
	if it.twin {
		b, l := it.blocks(d)
		for b.left > 0 {
			p, end := b.next()
			r, i := b.reach(p, end, l.delta)
			ryAVX2(r, i, p, end, b.inc, &l, c, sn)
		}
		return 2 * pairs, 12 * pairs
	}
	for it.left > 0 {
		for p, end := it.next(); p < end; p += it.inc {
			r0, i0 := re[p], im[p]
			r1, i1 := re[p+d], im[p+d]
			re[p] = c*r0 - sn*r1
			im[p] = c*i0 - sn*i1
			re[p+d] = sn*r0 + c*r1
			im[p+d] = sn*i0 + c*i1
		}
	}
	return 2 * pairs, 12 * pairs
}

// u3Coeffs returns the u3 matrix as (re, im) pairs in row-major order.
func u3Coeffs(theta, phi, lambda float64) [8]float64 {
	ct, st := math.Cos(theta/2), math.Sin(theta/2)
	return [8]float64{
		ct, 0,
		-math.Cos(lambda) * st, -math.Sin(lambda) * st,
		math.Cos(phi) * st, math.Sin(phi) * st,
		math.Cos(phi+lambda) * ct, math.Sin(phi+lambda) * ct,
	}
}

// u2 applies a generic complex 2x2, the only pairing body that pays the
// unspecialized cost (u3, u2, cu3 and the QIR Controlled functors).
func (it iter) u2(d int, u [8]float64) (amps, flops int64) {
	ar, ai, br, bi, cr, ci, dr, di := u[0], u[1], u[2], u[3], u[4], u[5], u[6], u[7]
	re, im := it.re, it.im
	pairs := int64(it.left)
	if it.twin {
		b, l := it.blocks(d)
		var uv [8][4]float64 // u broadcast, which the twin reads from memory
		for j, v := range u {
			uv[j] = [4]float64{v, v, v, v}
		}
		for b.left > 0 {
			p, end := b.next()
			r, i := b.reach(p, end, l.delta)
			u2AVX2(r, i, p, end, b.inc, &l, &uv)
		}
		return 2 * pairs, 28 * pairs
	}
	for it.left > 0 {
		for p, end := it.next(); p < end; p += it.inc {
			r0, i0 := re[p], im[p]
			r1, i1 := re[p+d], im[p+d]
			re[p] = ar*r0 - ai*i0 + br*r1 - bi*i1
			im[p] = ar*i0 + ai*r0 + br*i1 + bi*r1
			re[p+d] = cr*r0 - ci*i0 + dr*r1 - di*i1
			im[p+d] = cr*i0 + ci*r0 + dr*i1 + di*r1
		}
	}
	return 2 * pairs, 28 * pairs
}

// phase multiplies each visited amplitude by c + i sn: every kind whose
// normal form (gate.AppendDiagTerms) is one term — z, s, sdg, t, tdg, u1,
// gphase and their controlled forms — with that term as the factor, and
// the two halves of rz and rzz. The enumerator pins the operand bits, so
// only the amplitudes the gate changes are loaded ("we only need the
// calculation for the last element 1+i, saving more than half of the
// computation and memory access"). The expression is mulAmp's: a lone
// diagonal gate rounds exactly like a one-gate diagonal run. Per-kind
// shortcuts (a sign flip for z, a swap for s) are not kept: a lone
// diagonal gate is a small share of any workload's passes, and no
// workload measured slower without them (DESIGN.md §14).
func (it iter) phase(c, sn float64) (amps, flops int64) {
	re, im := it.re, it.im
	m := int64(it.left)
	if it.twin {
		b, l := it.blocks(0)
		for b.left > 0 {
			p, end := b.next()
			r, i := b.reach(p, end, l.delta)
			phaseAVX2(r, i, p, end, b.inc, &l, c, sn)
		}
		return m, 6 * m
	}
	for it.left > 0 {
		for p, end := it.next(); p < end; p += it.inc {
			r, i := re[p], im[p]
			re[p] = c*r - sn*i
			im[p] = sn*r + c*i
		}
	}
	return m, 6 * m
}

// matrix applies an arbitrary k-qubit unitary to the target bits by
// gather, multiply, scatter over each orbit (target j = bit j of the
// matrix index): the generalized path simulators like Aer and qsim use
// for every gate; SV-Sim uses it only for kinds without a specialized
// body. The scratch lives on the stack up to 4 targets.
func (w window) matrix(u gate.Matrix, targets []int32) (amps, flops int64) {
	dim := u.N
	if dim != 1<<uint(len(targets)) {
		panic("statevec: matrix operand count mismatch")
	}
	var offBuf [16]int
	var ampBuf [32]float64
	offs, amp := offBuf[:], ampBuf[:]
	if dim > len(offBuf) {
		offs, amp = make([]int, dim), make([]float64, 2*dim)
	}
	ampR, ampI := amp[:dim], amp[dim:2*dim]
	var tmask int
	for j, t := range targets {
		tmask |= 1 << uint(t)
		for a := 0; a < dim; a++ {
			offs[a] |= a >> uint(j) & 1 << uint(t)
		}
	}
	it := w.iter(0, tmask)
	re, im := it.re, it.im
	orbits := int64(it.left)
	for it.left > 0 {
		for p, end := it.next(); p < end; p += it.inc {
			for a := 0; a < dim; a++ {
				ampR[a], ampI[a] = re[p|offs[a]], im[p|offs[a]]
			}
			for a := 0; a < dim; a++ {
				var sr, si float64
				for b, v := range u.Data[a*dim : (a+1)*dim] {
					vr, vi := real(v), imag(v)
					sr += vr*ampR[b] - vi*ampI[b]
					si += vr*ampI[b] + vi*ampR[b]
				}
				re[p|offs[a]], im[p|offs[a]] = sr, si
			}
		}
	}
	return orbits * int64(dim), orbits * 8 * int64(dim) * int64(dim)
}
