package statevec

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"
)

// Measurement, reset, sampling, and expectation values. Collapse routines
// take an explicit uniform random number so that runs are reproducible and
// the distributed backends can broadcast one shared draw (the paper's
// SPMD processes must all collapse identically).

// ProbOne returns this window's share of the probability of measuring
// qubit q as 1: for a whole state, the probability itself. A qubit at or
// above the window (q >= N) is one bit of Base, so the whole window
// counts or none of it does. The sum is the balanced binary tree over
// the window's index space, an index whose bit q is 0 counting zero: a
// window is a subtree of its register's tree, so combining the shares of
// the windows that tile a register with the same tree (pgas.AllReduceSum)
// yields the register's ProbOne bit for bit, however many windows there
// are.
func (s *State) ProbOne(q int) float64 {
	bit := 1 << uint(q)
	if q >= s.N {
		if s.Base&bit == 0 {
			return 0
		}
		bit = 0
	}
	// sub[l] is the finished left subtree of 2^l leaves waiting for its
	// right sibling; leaf i completes one subtree per trailing one of i.
	var sub [bits.UintSize]float64
	for i := 0; i < s.Dim; i++ {
		var v float64
		if i&bit == bit {
			v = s.Re[i]*s.Re[i] + s.Im[i]*s.Im[i]
		}
		l := 0
		for ; i>>uint(l)&1 == 1; l++ {
			v = sub[l] + v
		}
		sub[l] = v
	}
	return sub[s.N]
}

// Project collapses this window onto qubit q == outcome: the matching
// amplitudes are renormalized, the others zeroed. p1 is the probability
// of q == 1 over the WHOLE register (for a window, the reduced sum of
// every window's ProbOne), so all windows scale by the same factor and
// end bit-identical to the projected register. A qubit at or above the
// window keeps or clears the window as a whole. Work counters are the
// caller's to charge.
func (s *State) Project(q, outcome int, p1 float64) {
	p := p1
	if outcome == 0 {
		p = 1 - p1
	}
	if p <= 0 {
		panic("statevec: projecting onto a zero-probability outcome")
	}
	scale := 1 / math.Sqrt(p)
	bit, above := 1<<uint(q), false
	if q >= s.N {
		// One bit of Base decides for the whole window.
		bit, above = 0, s.Base>>uint(q)&1 == 1
	}
	for i := 0; i < s.Dim; i++ {
		if (above || i&bit != 0) == (outcome == 1) {
			s.Re[i] *= scale
			s.Im[i] *= scale
		} else {
			s.Re[i] = 0
			s.Im[i] = 0
		}
	}
}

// Sample draws shots basis states from the current distribution without
// collapsing the state, returning basis indices. It builds the cumulative
// distribution once and binary-searches per shot, the standard approach for
// the paper's "repeatedly sample from the resulting QC state" use case.
func (s *State) Sample(rng *rand.Rand, shots int) []int {
	cum := make([]float64, s.Dim)
	var acc float64
	for i := 0; i < s.Dim; i++ {
		acc += s.Re[i]*s.Re[i] + s.Im[i]*s.Im[i]
		cum[i] = acc
	}
	out := make([]int, shots)
	for k := 0; k < shots; k++ {
		r := rng.Float64() * acc
		out[k] = sort.SearchFloat64s(cum, r)
		if out[k] >= s.Dim {
			out[k] = s.Dim - 1
		}
	}
	return out
}

// ExpPauliGroup writes to out[k] (len(out) >= len(zs)) the expectation
// <P_k> of every Pauli string P_k = (x, zs[k]) that shares the X mask x,
// in one read-only pass over the whole state. The masks follow PauliRot's convention: bit q of
// x is set where P_k has X or Y on qubit q, bit q of zs[k] where it has Z
// or Y, so P_k|j> = i^{#Y} (-1)^{popcount(j & zs[k])} |j ^ x> with #Y =
// popcount(x & zs[k]). The walk is pauliRot's without the write: p has
// the pivot (x's highest bit) clear, q = p ^ x is its partner, and the
// pair adds
//
//	i^{#Y} (s_q w + s_p conj(w)),  w = conj(a[p]) a[q],  s_j = (-1)^{popcount(j & zs[k])}
//
// which is ±2 Re w for even #Y and ±2 Im w for odd #Y (s_q = ±s_p), so
// the result is real by construction and w is computed once per pair for
// every k. With x == 0 every index is its own partner and out[k] sums
// ±|a[j]|^2 in index order. Every bit of x must lie inside the state;
// Z bits above it are ignored. Stats are not charged.
func (s *State) ExpPauliGroup(x uint64, zs []uint64, out []float64) {
	if x >= uint64(s.Dim) {
		panic("statevec: Pauli expectation pairs amplitudes outside the state")
	}
	out = out[:len(zs)]
	clear(out)
	pivot := 0
	if x != 0 {
		pivot = 1 << uint(bits.Len64(x)-1)
	}
	it := s.window(0, s.Dim).iter(0, pivot)
	re, im := it.re, it.im
	for it.left > 0 {
		p, end := it.next()
		for ; p < end; p += it.inc {
			q := p ^ int(x)
			w := [2]float64{re[p]*re[q] + im[p]*im[q], re[p]*im[q] - im[p]*re[q]}
			for k, z := range zs {
				v := w[bits.OnesCount64(x&z)&1]
				if bits.OnesCount64(uint64(p)&z)&1 == 0 {
					out[k] += v
				} else {
					out[k] -= v
				}
			}
		}
	}
	if x == 0 {
		return
	}
	for k, z := range zs {
		out[k] *= [4]float64{2, 2, -2, -2}[bits.OnesCount64(x&z)&3]
	}
}
