// Package ham implements Pauli-string Hamiltonians and expectation-value
// measurement for the paper's VQE case study (§5, Fig. 16): term storage,
// exact and shot-based measurement against a state vector, a dense form
// for verification, and the 4-qubit Jordan-Wigner H2/STO-3G Hamiltonian.
//
// Two groupings serve two paths. Expectation, the exact energy, groups
// terms by X mask: the terms sharing one are read in one read-only pass
// (statevec.ExpPauliGroup), with no clone and no basis rotation.
// SampleExpectation groups terms into qubit-wise commuting sets
// (GroupCommuting): shots need one shared measurement basis per group,
// so it rotates a clone into that basis and samples it.
package ham

import (
	"fmt"
	"math"

	"svsim/internal/circuit"
	"svsim/internal/statevec"
)

// Term is one Pauli string with a real coefficient (Hamiltonians are
// Hermitian, so coefficients of Pauli strings are real).
type Term struct {
	Coeff  float64
	Paulis []circuit.PauliTerm // empty = identity term
}

// Hamiltonian is a sum of Pauli-string terms over N qubits.
type Hamiltonian struct {
	N     int
	Terms []Term
}

// Add appends a term given as a Pauli label string ("IZZI" style).
func (h *Hamiltonian) Add(coeff float64, label string) {
	if len(label) != h.N {
		panic(fmt.Sprintf("ham: label %q does not cover %d qubits", label, h.N))
	}
	terms, err := circuit.ParsePauliString(label)
	if err != nil {
		panic(err)
	}
	h.Terms = append(h.Terms, Term{Coeff: coeff, Paulis: terms})
}

// Expectation computes <s|H|s> exactly: one statevec.ExpPauliGroup pass
// per distinct X mask, the groups in order of first appearance, then the
// terms' c_k <P_k> summed in Terms order. The input state is not modified
// and not copied.
func (h *Hamiltonian) Expectation(s *statevec.State) float64 {
	if s.N != h.N {
		panic("ham: state size mismatch")
	}
	type group struct {
		x     uint64
		zs    []uint64
		terms []int
	}
	var groups []group
	byX := map[uint64]int{}
	for i, t := range h.Terms {
		if len(t.Paulis) == 0 {
			continue
		}
		x, z := h.masks(i)
		g, ok := byX[x]
		if !ok {
			g = len(groups)
			byX[x] = g
			groups = append(groups, group{x: x})
		}
		groups[g].zs = append(groups[g].zs, z)
		groups[g].terms = append(groups[g].terms, i)
	}
	vals := make([]float64, len(h.Terms))
	out := make([]float64, len(h.Terms))
	for _, g := range groups {
		s.ExpPauliGroup(g.x, g.zs, out)
		for j, i := range g.terms {
			vals[i] = out[j]
		}
	}
	var e float64
	for i, t := range h.Terms {
		if len(t.Paulis) == 0 {
			e += t.Coeff
			continue
		}
		e += t.Coeff * vals[i]
	}
	return e
}

// masks returns term i's X and Z masks (circuit.PauliMasks), panicking
// with the term's index on a term that names a qubit twice or acts
// outside the Hamiltonian's qubits.
func (h *Hamiltonian) masks(i int) (x, z uint64) {
	x, z, err := circuit.PauliMasks(h.Terms[i].Paulis)
	if err == nil && (x|z)>>uint(h.N) != 0 {
		err = fmt.Errorf("acts outside %d qubits", h.N)
	}
	if err != nil {
		panic(fmt.Sprintf("ham: term %d: %v", i, err))
	}
	return x, z
}

// Dense materializes the Hamiltonian as a dense 2^N x 2^N matrix (tests
// and ground-truth diagonalization only; exponential memory).
func (h *Hamiltonian) Dense() [][]complex128 {
	dim := 1 << uint(h.N)
	m := make([][]complex128, dim)
	for i := range m {
		m[i] = make([]complex128, dim)
	}
	for _, t := range h.Terms {
		addPauliTerm(m, t, h.N)
	}
	return m
}

func addPauliTerm(m [][]complex128, t Term, n int) {
	dim := 1 << uint(n)
	opOf := make(map[int]circuit.Pauli, len(t.Paulis))
	for _, p := range t.Paulis {
		opOf[p.Q] = p.P
	}
	for col := 0; col < dim; col++ {
		row := col
		coeff := complex(t.Coeff, 0)
		for q := 0; q < n; q++ {
			bit := col >> uint(q) & 1
			switch opOf[q] {
			case circuit.PauliX:
				row ^= 1 << uint(q)
			case circuit.PauliY:
				row ^= 1 << uint(q)
				if bit == 0 {
					coeff *= 1i // Y|0> = i|1>
				} else {
					coeff *= -1i // Y|1> = -i|0>
				}
			case circuit.PauliZ:
				if bit == 1 {
					coeff = -coeff
				}
			}
		}
		m[row][col] += coeff
	}
}

// GroundEnergy computes the smallest eigenvalue of the Hamiltonian by
// shifted power iteration on its dense form (reference value for the VQE
// experiments; use only for small N).
func (h *Hamiltonian) GroundEnergy() float64 {
	m := h.Dense()
	dim := len(m)
	// Gershgorin upper bound to shift the spectrum: sigma*I - H is PSD
	// with the ground state as its dominant eigenvector.
	var sigma float64
	for i := 0; i < dim; i++ {
		row := 0.0
		for j := 0; j < dim; j++ {
			a := m[i][j]
			row += math.Hypot(real(a), imag(a))
		}
		if row > sigma {
			sigma = row
		}
	}
	v := make([]complex128, dim)
	for i := range v {
		// Deterministic non-degenerate start vector.
		v[i] = complex(1/math.Sqrt(float64(dim)), float64(i%7)*1e-3)
	}
	normalize(v)
	w := make([]complex128, dim)
	for iter := 0; iter < 3000; iter++ {
		for i := 0; i < dim; i++ {
			acc := complex(sigma, 0) * v[i]
			for j := 0; j < dim; j++ {
				acc -= m[i][j] * v[j]
			}
			w[i] = acc
		}
		copy(v, w)
		normalize(v)
	}
	// Rayleigh quotient of H.
	var e complex128
	for i := 0; i < dim; i++ {
		var hv complex128
		for j := 0; j < dim; j++ {
			hv += m[i][j] * v[j]
		}
		e += complexConj(v[i]) * hv
	}
	return real(e)
}

func normalize(v []complex128) {
	var n float64
	for _, x := range v {
		n += real(x)*real(x) + imag(x)*imag(x)
	}
	n = math.Sqrt(n)
	for i := range v {
		v[i] /= complex(n, 0)
	}
}

func complexConj(x complex128) complex128 { return complex(real(x), -imag(x)) }

// H2 returns the 4-qubit Jordan-Wigner STO-3G Hamiltonian of molecular
// hydrogen at the equilibrium bond length 0.7414 A, with the nuclear
// repulsion folded into the identity coefficient so the ground energy is
// the total energy (~ -1.137 Ha), the value Fig. 16 converges to.
// Coefficients follow Seeley, Richard & Love (J. Chem. Phys. 137, 224109).
func H2() *Hamiltonian {
	h := &Hamiltonian{N: 4}
	// Electronic identity coefficient -0.81261 plus the nuclear repulsion
	// 1/R = 1/1.4011 bohr = 0.71373 Ha, so eigenvalues are total energies.
	h.Add(-0.81261+0.71373, "IIII")
	h.Add(0.171201, "ZIII")
	h.Add(0.171201, "IZII")
	h.Add(-0.222796, "IIZI")
	h.Add(-0.222796, "IIIZ")
	h.Add(0.168623, "ZZII")
	h.Add(0.120545, "ZIZI")
	h.Add(0.165868, "ZIIZ")
	h.Add(0.165868, "IZZI")
	h.Add(0.120545, "IZIZ")
	h.Add(0.174349, "IIZZ")
	h.Add(-0.045322, "XXYY")
	h.Add(0.045322, "XYYX")
	h.Add(0.045322, "YXXY")
	h.Add(-0.045322, "YYXX")
	return h
}

// H2Reference is the FCI/STO-3G total ground energy of H2 at equilibrium,
// the asymptote of the paper's Fig. 16.
const H2Reference = -1.1373
