// Package density implements a density-matrix simulator using the
// vectorization trick of the authors' companion DM-Sim system (paper
// reference [41], discussed in §6): the density matrix rho of an n-qubit
// system is stored as a 2n-qubit state vector vec(rho), on which a gate U
// acts as U on the low n qubits and conj(U) on the high n qubits, because
// vec(U rho U^dagger) = (conj(U) (x) U) vec(rho). This reuses the entire
// statevec kernel machinery, exactly as DM-Sim reuses SV-Sim's.
//
// Unlike the trajectory method of internal/noise, Kraus channels apply
// exactly: rho -> sum_i K_i rho K_i^dagger is a sum of vectorized terms.
// The two noise paths cross-validate each other in the tests.
package density

import (
	"fmt"
	"math"
	"math/bits"

	"svsim/internal/circuit"
	"svsim/internal/gate"
	"svsim/internal/statevec"
)

// Density is an n-qubit density matrix held as the 2n-qubit vec(rho):
// basis index r | c<<n holds rho[r][c].
type Density struct {
	N   int
	vec *statevec.State
}

// MaxQubits bounds the density simulator (vec(rho) needs 2n qubits).
const MaxQubits = statevec.MaxQubits / 2

// New creates the pure state |0...0><0...0|.
func New(n int) *Density {
	if n < 1 || n > MaxQubits {
		panic(fmt.Sprintf("density: qubit count %d out of range [1,%d]", n, MaxQubits))
	}
	return &Density{N: n, vec: statevec.New(2 * n)}
}

// FromState builds the pure density matrix |psi><psi|.
func FromState(s *statevec.State) *Density {
	d := New(s.N)
	dim := s.Dim
	for r := 0; r < dim; r++ {
		for c := 0; c < dim; c++ {
			// rho[r][c] = psi_r * conj(psi_c)
			ar, ai := s.Re[r], s.Im[r]
			br, bi := s.Re[c], -s.Im[c]
			idx := r | c<<uint(s.N)
			d.vec.Re[idx] = ar*br - ai*bi
			d.vec.Im[idx] = ar*bi + ai*br
		}
	}
	return d
}

// Clone deep-copies the density matrix.
func (d *Density) Clone() *Density { return &Density{N: d.N, vec: d.vec.Clone()} }

// conjMatrix returns the element-wise conjugate of a matrix.
func conjMatrix(u gate.Matrix) gate.Matrix {
	out := gate.NewMatrix(u.N)
	for i := range u.Data {
		out.Data[i] = complex(real(u.Data[i]), -imag(u.Data[i]))
	}
	return out
}

// ApplyGate evolves rho -> U rho U^dagger for a unitary gate.
func (d *Density) ApplyGate(g gate.Gate) {
	if !g.Kind.Unitary() {
		panic(fmt.Sprintf("density: ApplyGate on non-unitary kind %s", g.Kind))
	}
	if g.Kind == gate.BARRIER {
		return
	}
	if g.Kind == gate.GPHASE {
		return // e^{i t} rho e^{-i t} = rho
	}
	// U on the row (low) qubits through the specialized kernels.
	d.vec.Apply(&g)
	// conj(U) on the column (high) qubits through the generic path.
	u := conjMatrix(gate.Unitary(g))
	ops := make([]int, g.NQ)
	for i := range ops {
		ops[i] = int(g.Qubits[i]) + d.N
	}
	d.vec.ApplyMatrix(u, ops)
}

// ApplyCircuit evolves through every unitary gate of a circuit.
func (d *Density) ApplyCircuit(c *circuit.Circuit) {
	for _, g := range c.StripNonUnitary().Gates() {
		d.ApplyGate(g)
	}
}

// ApplyKraus applies a general channel rho -> sum_i K_i rho K_i^dagger,
// with each K_i a single-qubit 2x2 operator on qubit q (the K_i need not
// be unitary; completeness sum K_i^dagger K_i = I is the caller's
// contract).
func (d *Density) ApplyKraus(q int, kraus []gate.Matrix) {
	acc := statevec.New(2 * d.N)
	for i := range acc.Re {
		acc.Re[i], acc.Im[i] = 0, 0
	}
	for _, k := range kraus {
		term := d.vec.Clone()
		term.ApplyMatrix(k, []int{q})
		term.ApplyMatrix(conjMatrix(k), []int{q + d.N})
		for i := range acc.Re {
			acc.Re[i] += term.Re[i]
			acc.Im[i] += term.Im[i]
		}
	}
	d.vec = acc
}

// Depolarize applies the depolarizing channel with error probability p
// (with probability p one of X, Y, Z strikes uniformly — matching the
// trajectory model of internal/noise).
func (d *Density) Depolarize(q int, p float64) {
	id := gate.Identity(2).Scale(complex(math.Sqrt(1-p), 0))
	s := complex(math.Sqrt(p/3), 0)
	d.ApplyKraus(q, []gate.Matrix{
		id,
		gate.Unitary(gate.NewX(0)).Scale(s),
		gate.Unitary(gate.NewY(0)).Scale(s),
		gate.Unitary(gate.NewZ(0)).Scale(s),
	})
}

// AmplitudeDamp applies the T1 relaxation channel with decay gamma.
func (d *Density) AmplitudeDamp(q int, gamma float64) {
	k0 := gate.Matrix{N: 2, Data: []complex128{1, 0, 0, complex(math.Sqrt(1-gamma), 0)}}
	k1 := gate.Matrix{N: 2, Data: []complex128{0, complex(math.Sqrt(gamma), 0), 0, 0}}
	d.ApplyKraus(q, []gate.Matrix{k0, k1})
}

// Dephase applies the pure-dephasing (T2) channel with probability p.
func (d *Density) Dephase(q int, p float64) {
	id := gate.Identity(2).Scale(complex(math.Sqrt(1-p), 0))
	z := gate.Unitary(gate.NewZ(0)).Scale(complex(math.Sqrt(p), 0))
	d.ApplyKraus(q, []gate.Matrix{id, z})
}

// Element returns rho[r][c].
func (d *Density) Element(r, c int) complex128 {
	idx := r | c<<uint(d.N)
	return complex(d.vec.Re[idx], d.vec.Im[idx])
}

// Probability returns the population rho[idx][idx].
func (d *Density) Probability(idx int) float64 { return real(d.Element(idx, idx)) }

// Trace returns tr(rho) (1 for a valid state).
func (d *Density) Trace() float64 {
	var t float64
	for i := 0; i < 1<<uint(d.N); i++ {
		t += d.Probability(i)
	}
	return t
}

// Purity returns tr(rho^2), which is simply the squared 2-norm of
// vec(rho): 1 for pure states, 1/2^n for the maximally mixed state.
func (d *Density) Purity() float64 {
	n := d.vec.Norm()
	return n * n
}

// ExpZMask returns the expectation of the Z-product over the masked
// qubits: a sum over the diagonal.
func (d *Density) ExpZMask(mask uint64) float64 {
	var e float64
	for i := 0; i < 1<<uint(d.N); i++ {
		p := d.Probability(i)
		if bits.OnesCount64(uint64(i)&mask)&1 == 0 {
			e += p
		} else {
			e -= p
		}
	}
	return e
}

// ExpPauli returns tr(rho P) for a Pauli string (basis-rotating a clone).
func (d *Density) ExpPauli(terms []circuit.PauliTerm) float64 {
	work := d.Clone()
	var mask uint64
	for _, t := range terms {
		switch t.P {
		case circuit.PauliX:
			work.ApplyGate(gate.NewH(t.Q))
		case circuit.PauliY:
			work.ApplyGate(gate.NewSDG(t.Q))
			work.ApplyGate(gate.NewH(t.Q))
		}
		mask |= uint64(1) << uint(t.Q)
	}
	return work.ExpZMask(mask)
}
