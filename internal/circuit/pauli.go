package circuit

import (
	"fmt"

	"svsim/internal/gate"
)

// Pauli labels a single-qubit Pauli operator.
type Pauli byte

// Pauli operator labels.
const (
	PauliI Pauli = 'I'
	PauliX Pauli = 'X'
	PauliY Pauli = 'Y'
	PauliZ Pauli = 'Z'
)

// PauliTerm is one tensor factor of a Pauli string: an operator on a qubit.
type PauliTerm struct {
	P Pauli
	Q int
}

// ParsePauliString parses a label like "XIZY" into terms, where character
// i acts on qubit i. 'I' factors are dropped.
func ParsePauliString(s string) ([]PauliTerm, error) {
	var terms []PauliTerm
	for i, ch := range s {
		switch Pauli(ch) {
		case PauliI:
		case PauliX, PauliY, PauliZ:
			terms = append(terms, PauliTerm{Pauli(ch), i})
		default:
			return nil, fmt.Errorf("circuit: bad Pauli label %q in %q", string(ch), s)
		}
	}
	return terms, nil
}

// PauliMasks returns a Pauli string's index-bit masks in
// statevec.PauliRot's convention: bit q of x is set where the string has
// X or Y on qubit q, bit q of z where it has Z or Y. A term naming a
// qubit twice, a qubit outside 0..63 or an operator other than X, Y, Z
// is an error: the masks could not say which operator was meant.
func PauliMasks(terms []PauliTerm) (x, z uint64, err error) {
	for _, t := range terms {
		if t.Q < 0 || t.Q > 63 {
			return 0, 0, fmt.Errorf("circuit: Pauli term on qubit %d", t.Q)
		}
		bit := uint64(1) << uint(t.Q)
		if (x|z)&bit != 0 {
			return 0, 0, fmt.Errorf("circuit: Pauli string names qubit %d twice", t.Q)
		}
		switch t.P {
		case PauliX:
			x |= bit
		case PauliY:
			x |= bit
			z |= bit
		case PauliZ:
			z |= bit
		default:
			return 0, 0, fmt.Errorf("circuit: bad Pauli operator %q on qubit %d", string(t.P), t.Q)
		}
	}
	return x, z, nil
}

// ExpPauli appends the Pauli-string exponential exp(-i theta P / 2) as a
// basis-change + CX-ladder + RZ + inverse sequence, the standard compiled
// form used by UCCSD ansatz synthesis and by the QIR runtime's Exp verb.
// An empty term list contributes the global phase exp(-i theta / 2).
func (c *Circuit) ExpPauli(theta float64, terms []PauliTerm) *Circuit {
	if len(terms) == 0 {
		c.Append(gate.NewGPhase(-theta / 2))
		return c
	}
	// Basis change into Z: X -> H, Y -> SDG then H (so that the ladder of
	// CXs accumulates the joint parity on the last qubit).
	for _, t := range terms {
		switch t.P {
		case PauliX:
			c.H(t.Q)
		case PauliY:
			// Rotate Y to Z: apply S-dagger then H.
			c.Sdg(t.Q)
			c.H(t.Q)
		case PauliZ:
			// already diagonal
		default:
			panic(fmt.Sprintf("circuit: ExpPauli got operator %q", string(t.P)))
		}
	}
	last := terms[len(terms)-1].Q
	for i := 0; i < len(terms)-1; i++ {
		c.CX(terms[i].Q, last)
	}
	c.RZ(theta, last)
	for i := len(terms) - 2; i >= 0; i-- {
		c.CX(terms[i].Q, last)
	}
	for _, t := range terms {
		switch t.P {
		case PauliX:
			c.H(t.Q)
		case PauliY:
			c.H(t.Q)
			c.S(t.Q)
		}
	}
	return c
}

// ExpPauliGateCount returns the number of gates ExpPauli emits for a term
// list with the given X/Y/Z composition, used by the UCCSD gate-count
// model (Fig. 17) without materializing circuits.
func ExpPauliGateCount(nx, ny, nz int) int {
	w := nx + ny + nz
	if w == 0 {
		return 1
	}
	return nx*2 + ny*4 + 2*(w-1) + 1
}
