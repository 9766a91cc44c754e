package ham

import "svsim/internal/circuit"

// Measurement grouping for the shot estimate (sampling_test.go): each
// group of qubit-wise commuting (QWC) terms shares one basis rotation and
// one set of shots. Two Pauli strings qubit-wise commute when, on every
// qubit, their operators are equal or one is the identity.

// qwcCompatible reports whether a term fits a group's per-qubit basis
// assignment.
func qwcCompatible(basis []circuit.Pauli, t Term) bool {
	for _, p := range t.Paulis {
		if b := basis[p.Q]; b != circuit.PauliI && b != p.P {
			return false
		}
	}
	return true
}

// TermGroup is one qubit-wise commuting set with its shared basis.
type TermGroup struct {
	Terms []Term
	// Basis is the measurement basis per qubit, indexed by qubit:
	// PauliI where no term of the group acts.
	Basis []circuit.Pauli
}

// GroupCommuting partitions the Hamiltonian's terms into qubit-wise
// commuting groups with a greedy first-fit pass (identity terms form no
// group; their coefficients are returned separately as the constant).
// A term naming a qubit twice or acting outside the Hamiltonian's qubits
// panics with its index.
func (h *Hamiltonian) GroupCommuting() (groups []TermGroup, constant float64) {
	for i, t := range h.Terms {
		if len(t.Paulis) == 0 {
			constant += t.Coeff
			continue
		}
		h.masks(i) // a repeated qubit would leave the basis ambiguous
		gi := 0
		for gi < len(groups) && !qwcCompatible(groups[gi].Basis, t) {
			gi++
		}
		if gi == len(groups) {
			basis := make([]circuit.Pauli, h.N)
			for q := range basis {
				basis[q] = circuit.PauliI
			}
			groups = append(groups, TermGroup{Basis: basis})
		}
		groups[gi].Terms = append(groups[gi].Terms, t)
		for _, p := range t.Paulis {
			groups[gi].Basis[p.Q] = p.P
		}
	}
	return groups, constant
}
