// Package ham implements Pauli-string Hamiltonians and expectation-value
// measurement for the paper's VQE case study (§5, Fig. 16): term storage,
// the exact energy against a state vector, and the 4-qubit Jordan-Wigner
// H2/STO-3G Hamiltonian.
//
// Expectation groups terms by X mask: the terms sharing one are read in
// one read-only pass (statevec.ExpPauliGroup), with no clone and no basis
// rotation. The package's tests hold it to oracles that live beside
// them: the dense matrix form and its ground energy, and a shot estimate
// over qubit-wise commuting groups.
package ham

import (
	"fmt"

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
