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

// MeasureQubit performs a projective measurement of qubit q using the
// uniform draw r in [0,1), collapses the state, and returns the outcome.
func (s *State) MeasureQubit(q int, r float64) int {
	p1 := s.ProbOne(q)
	outcome := 0
	if r < p1 {
		outcome = 1
	}
	s.Project(q, outcome, p1)
	s.Stats.add(int64(s.Dim), int64(2*s.Dim))
	return outcome
}

// ResetQubit measures qubit q (using draw r) and flips it to |0> if the
// outcome was 1, implementing the OpenQASM reset statement.
func (s *State) ResetQubit(q int, r float64) {
	if s.MeasureQubit(q, r) == 1 {
		s.ApplyX(q)
	}
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

// Probabilities returns the full probability vector (length Dim).
func (s *State) Probabilities() []float64 {
	p := make([]float64, s.Dim)
	for i := range p {
		p[i] = s.Re[i]*s.Re[i] + s.Im[i]*s.Im[i]
	}
	return p
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

// Counts draws shots samples and histograms them by basis index.
func (s *State) Counts(rng *rand.Rand, shots int) map[int]int {
	counts := make(map[int]int)
	for _, idx := range s.Sample(rng, shots) {
		counts[idx]++
	}
	return counts
}

// ExpZ returns <Z_q>, the expectation of Pauli-Z on qubit q.
func (s *State) ExpZ(q int) float64 {
	bit := 1 << uint(q)
	var e float64
	for i := 0; i < s.Dim; i++ {
		p := s.Re[i]*s.Re[i] + s.Im[i]*s.Im[i]
		if i&bit == 0 {
			e += p
		} else {
			e -= p
		}
	}
	return e
}

// ExpZMask returns the expectation of the product of Z operators over every
// qubit set in mask (the diagonal part of a Pauli-string measurement).
func (s *State) ExpZMask(mask uint64) float64 {
	var e float64
	for i := 0; i < s.Dim; i++ {
		p := s.Re[i]*s.Re[i] + s.Im[i]*s.Im[i]
		if popcountEven(uint64(i) & mask) {
			e += p
		} else {
			e -= p
		}
	}
	return e
}

func popcountEven(x uint64) bool {
	x ^= x >> 32
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return x&1 == 0
}

// MarginalProbs returns the probability distribution over the given
// subset of qubits (bit i of the returned index corresponds to qubits[i]),
// marginalizing everything else — the register-readout view used when a
// circuit measures only part of the system.
func (s *State) MarginalProbs(qubits []int) []float64 {
	out := make([]float64, 1<<uint(len(qubits)))
	for i := 0; i < s.Dim; i++ {
		p := s.Re[i]*s.Re[i] + s.Im[i]*s.Im[i]
		if p == 0 {
			continue
		}
		v := 0
		for bi, q := range qubits {
			if i>>uint(q)&1 == 1 {
				v |= 1 << uint(bi)
			}
		}
		out[v] += p
	}
	return out
}
