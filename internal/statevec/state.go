// Package statevec implements the dense state-vector substrate of SV-Sim:
// the storage layout, the one set of specialized gate kernels every
// executor applies (the paper's "specialized gate implementation", §3.2.1;
// see window.go), the generic matrix-apply path (the Aer-style baseline
// the paper contrasts against), and measurement, sampling, and
// expectation-value routines.
//
// The state is stored as two separate float64 slices (sv_real / sv_imag),
// exactly as in the paper, because the structure-of-arrays layout is what
// makes the specialized kernels stream efficiently. Qubit 0 is the least
// significant bit of a basis index, matching the paper's index formulas.
package statevec

import (
	"fmt"
	"math"
)

// KernelStyle selects between the two loop structures the paper implements:
// the strided per-element loop of Listing 3 (Scalar) and the blocked,
// unit-stride inner loop of the AVX-512 kernels in Listing 2 (Vectorized),
// whose runs execute four amplitudes per instruction on an amd64 CPU with
// AVX2 (run_amd64.s) and as the same Go loop elsewhere. Results are
// bit-identical; the bench harness uses the pair for the vectorization
// ablation (the paper's ~2x AVX-512 observation). Scalar is the zero
// value, so a Config that does not set Style runs Listing 3.
type KernelStyle uint8

const (
	// Scalar uses the paper's Listing 3 strided index loop: runs of one
	// amplitude, never vectorized.
	Scalar KernelStyle = iota
	// Vectorized uses blocked unit-stride runs (Listing 2): AVX2 where the
	// CPU has it, for every run of at least four amplitudes.
	Vectorized
)

// Stats accumulates the per-run work and traffic counters that feed the
// platform performance model: every latency figure in the paper is
// regenerated from these measured quantities times platform constants.
type Stats struct {
	Gates        int64 // gates applied
	AmpsTouched  int64 // state-vector amplitudes read+written
	BytesTouched int64 // memory traffic in bytes (16 bytes per amplitude)
	FlopEst      int64 // floating-point operation estimate
	Sweeps       int64 // full-state memory sweeps (tiled runs count one per group)
}

func (s *Stats) add(amps, flops int64) {
	s.Gates++
	s.AmpsTouched += amps
	s.BytesTouched += amps * 16
	s.FlopEst += flops
	s.Sweeps++
}

// AddTileWork folds the compute side of one tiled group pass into the
// stats: the gates applied and the amplitudes/flops their kernels
// actually visited. Memory traffic is NOT charged here — a tiled group
// streams the state once regardless of how many gates replay over each
// tile, so the executor charges it separately with AddSweep.
func (s *Stats) AddTileWork(gates, amps, flops int64) {
	s.Gates += gates
	s.AmpsTouched += amps
	s.FlopEst += flops
}

// AddSweep charges the memory traffic of one homogeneous pass over amps
// amplitudes (16 bytes each: one float64 real + one imag).
func (s *Stats) AddSweep(amps int64) {
	s.Sweeps++
	s.BytesTouched += amps * 16
}

// Add merges another counter set into s.
func (s *Stats) Add(o Stats) {
	s.Gates += o.Gates
	s.AmpsTouched += o.AmpsTouched
	s.BytesTouched += o.BytesTouched
	s.FlopEst += o.FlopEst
	s.Sweeps += o.Sweeps
}

// State is a dense n-qubit pure state.
type State struct {
	N   int // number of qubits
	Dim int // 1 << N

	Re, Im []float64

	// Base is the global index of Re[0] when the state wraps one
	// partition of a larger register (a PE's rank*S); 0 for a whole
	// state. Apply resolves operand qubits at or above N against it.
	Base int

	Style KernelStyle
	Stats Stats
}

// MaxQubits caps state allocation: 30 qubits is 16 GiB of amplitudes, the
// largest a single host of this repo's class can hold.
const MaxQubits = 30

// New allocates an n-qubit state initialized to |0...0>.
func New(n int) *State {
	if n < 1 || n > MaxQubits {
		panic(fmt.Sprintf("statevec: qubit count %d out of range [1,%d]", n, MaxQubits))
	}
	dim := 1 << uint(n)
	s := &State{
		N:   n,
		Dim: dim,
		Re:  make([]float64, dim),
		Im:  make([]float64, dim),
	}
	s.Re[0] = 1
	return s
}

// Reset returns the state to |0...0> without reallocating.
func (s *State) Reset() {
	for i := range s.Re {
		s.Re[i] = 0
		s.Im[i] = 0
	}
	s.Re[0] = 1
	s.Stats = Stats{}
}

// Clone returns a deep copy of the state (stats are copied too).
func (s *State) Clone() *State {
	c := &State{N: s.N, Dim: s.Dim, Base: s.Base, Style: s.Style, Stats: s.Stats}
	c.Re = append([]float64(nil), s.Re...)
	c.Im = append([]float64(nil), s.Im...)
	return c
}

// Amplitude returns the complex amplitude of basis state idx.
func (s *State) Amplitude(idx int) complex128 {
	return complex(s.Re[idx], s.Im[idx])
}

// Probability returns |amplitude(idx)|^2.
func (s *State) Probability(idx int) float64 {
	return s.Re[idx]*s.Re[idx] + s.Im[idx]*s.Im[idx]
}

// Norm returns the 2-norm of the state (1.0 for a valid pure state).
func (s *State) Norm() float64 {
	var sum float64
	for i := range s.Re {
		sum += s.Re[i]*s.Re[i] + s.Im[i]*s.Im[i]
	}
	return math.Sqrt(sum)
}

// InnerProduct returns <s|o>.
func (s *State) InnerProduct(o *State) complex128 {
	if s.Dim != o.Dim {
		panic("statevec: inner product dimension mismatch")
	}
	var re, im float64
	for i := range s.Re {
		// conj(s_i) * o_i
		re += s.Re[i]*o.Re[i] + s.Im[i]*o.Im[i]
		im += s.Re[i]*o.Im[i] - s.Im[i]*o.Re[i]
	}
	return complex(re, im)
}

// Fidelity returns |<s|o>|^2.
func (s *State) Fidelity(o *State) float64 {
	ip := s.InnerProduct(o)
	return real(ip)*real(ip) + imag(ip)*imag(ip)
}

// DistanceUpToGlobalPhase returns the trace-like distance sqrt(1 - |<s|o>|^2),
// a phase-insensitive mismatch measure used by the equivalence tests.
func (s *State) DistanceUpToGlobalPhase(o *State) float64 {
	f := s.Fidelity(o)
	if f > 1 {
		f = 1
	}
	return math.Sqrt(1 - f)
}

// MaxAbsDiff returns the largest element-wise amplitude difference; the
// strict comparison used when two simulation paths must agree exactly
// (including global phase).
func (s *State) MaxAbsDiff(o *State) float64 {
	if s.Dim != o.Dim {
		panic("statevec: dimension mismatch")
	}
	var m float64
	for i := range s.Re {
		dr := s.Re[i] - o.Re[i]
		di := s.Im[i] - o.Im[i]
		if d := math.Sqrt(dr*dr + di*di); d > m {
			m = d
		}
	}
	return m
}

// SetAmplitudes overwrites the state with the given complex amplitudes
// (used by tests and by the baseline simulators to cross-load states). The
// caller is responsible for normalization.
func (s *State) SetAmplitudes(amps []complex128) {
	if len(amps) != s.Dim {
		panic("statevec: SetAmplitudes dimension mismatch")
	}
	for i, a := range amps {
		s.Re[i] = real(a)
		s.Im[i] = imag(a)
	}
}

// Amplitudes returns a fresh copy of the state as complex numbers.
func (s *State) Amplitudes() []complex128 {
	out := make([]complex128, s.Dim)
	for i := range out {
		out[i] = complex(s.Re[i], s.Im[i])
	}
	return out
}

// InsertZeroBit spreads x so that a zero bit appears at position b:
// the paper's s_i = floor(i/2^q)*2^{q+1} + (i mod 2^q) index transform.
func InsertZeroBit(x, b int) int {
	return x>>uint(b)<<uint(b+1) | x&(1<<uint(b)-1)
}
