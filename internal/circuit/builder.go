package circuit

import "svsim/internal/gate"

// Builder helpers: thin fluent wrappers so generators and user code read
// like circuit diagrams. Each method appends one gate and returns the
// circuit for chaining.

// H appends a Hadamard.
func (c *Circuit) H(q int) *Circuit { c.Append(gate.NewH(q)); return c }

// X appends a Pauli-X.
func (c *Circuit) X(q int) *Circuit { c.Append(gate.NewX(q)); return c }

// Y appends a Pauli-Y.
func (c *Circuit) Y(q int) *Circuit { c.Append(gate.NewY(q)); return c }

// Z appends a Pauli-Z.
func (c *Circuit) Z(q int) *Circuit { c.Append(gate.NewZ(q)); return c }

// S appends an S gate.
func (c *Circuit) S(q int) *Circuit { c.Append(gate.NewS(q)); return c }

// Sdg appends an S-dagger gate.
func (c *Circuit) Sdg(q int) *Circuit { c.Append(gate.NewSDG(q)); return c }

// T appends a T gate.
func (c *Circuit) T(q int) *Circuit { c.Append(gate.NewT(q)); return c }

// ID appends an identity gate.
func (c *Circuit) ID(q int) *Circuit { c.Append(gate.NewID(q)); return c }

// RX appends an X rotation.
func (c *Circuit) RX(theta float64, q int) *Circuit { c.Append(gate.NewRX(theta, q)); return c }

// RY appends a Y rotation.
func (c *Circuit) RY(theta float64, q int) *Circuit { c.Append(gate.NewRY(theta, q)); return c }

// RZ appends a Z rotation.
func (c *Circuit) RZ(theta float64, q int) *Circuit { c.Append(gate.NewRZ(theta, q)); return c }

// U1 appends a phase gate.
func (c *Circuit) U1(lambda float64, q int) *Circuit { c.Append(gate.NewU1(lambda, q)); return c }

// U2 appends a u2 gate.
func (c *Circuit) U2(phi, lambda float64, q int) *Circuit {
	c.Append(gate.NewU2(phi, lambda, q))
	return c
}

// U3 appends a u3 gate.
func (c *Circuit) U3(theta, phi, lambda float64, q int) *Circuit {
	c.Append(gate.NewU3(theta, phi, lambda, q))
	return c
}

// CX appends a controlled-NOT.
func (c *Circuit) CX(ctrl, tgt int) *Circuit { c.Append(gate.NewCX(ctrl, tgt)); return c }

// CY appends a controlled-Y.
func (c *Circuit) CY(ctrl, tgt int) *Circuit { c.Append(gate.NewCY(ctrl, tgt)); return c }

// CZ appends a controlled-Z.
func (c *Circuit) CZ(ctrl, tgt int) *Circuit { c.Append(gate.NewCZ(ctrl, tgt)); return c }

// CH appends a controlled-Hadamard.
func (c *Circuit) CH(ctrl, tgt int) *Circuit { c.Append(gate.NewCH(ctrl, tgt)); return c }

// Swap appends a swap gate.
func (c *Circuit) Swap(a, b int) *Circuit { c.Append(gate.NewSWAP(a, b)); return c }

// CCX appends a Toffoli.
func (c *Circuit) CCX(a, b, tgt int) *Circuit { c.Append(gate.NewCCX(a, b, tgt)); return c }

// CRX appends a controlled X rotation.
func (c *Circuit) CRX(theta float64, ctrl, tgt int) *Circuit {
	c.Append(gate.NewCRX(theta, ctrl, tgt))
	return c
}

// CRY appends a controlled Y rotation.
func (c *Circuit) CRY(theta float64, ctrl, tgt int) *Circuit {
	c.Append(gate.NewCRY(theta, ctrl, tgt))
	return c
}

// CRZ appends a controlled Z rotation.
func (c *Circuit) CRZ(theta float64, ctrl, tgt int) *Circuit {
	c.Append(gate.NewCRZ(theta, ctrl, tgt))
	return c
}

// CU1 appends a controlled phase rotation.
func (c *Circuit) CU1(lambda float64, ctrl, tgt int) *Circuit {
	c.Append(gate.NewCU1(lambda, ctrl, tgt))
	return c
}

// CU3 appends a controlled u3.
func (c *Circuit) CU3(theta, phi, lambda float64, ctrl, tgt int) *Circuit {
	c.Append(gate.NewCU3(theta, phi, lambda, ctrl, tgt))
	return c
}

// RXX appends a two-qubit XX rotation.
func (c *Circuit) RXX(theta float64, a, b int) *Circuit {
	c.Append(gate.NewRXX(theta, a, b))
	return c
}

// RZZ appends a two-qubit ZZ rotation.
func (c *Circuit) RZZ(theta float64, a, b int) *Circuit {
	c.Append(gate.NewRZZ(theta, a, b))
	return c
}

// C3X appends a 3-controlled X.
func (c *Circuit) C3X(a, b, d, tgt int) *Circuit { c.Append(gate.NewC3X(a, b, d, tgt)); return c }

// C4X appends a 4-controlled X.
func (c *Circuit) C4X(a, b, d, e, tgt int) *Circuit {
	c.Append(gate.NewC4X(a, b, d, e, tgt))
	return c
}

// Measure appends a measurement of qubit q into classical bit cb.
func (c *Circuit) Measure(q, cb int) *Circuit {
	if cb >= c.NumClbits {
		c.NumClbits = cb + 1
	}
	c.Append(gate.NewMeasure(q, cb))
	return c
}

// MeasureAll measures every qubit into the matching classical bit.
func (c *Circuit) MeasureAll() *Circuit {
	for q := 0; q < c.NumQubits; q++ {
		c.Measure(q, q)
	}
	return c
}

// Reset appends a qubit reset.
func (c *Circuit) Reset(q int) *Circuit { c.Append(gate.NewReset(q)); return c }

// Barrier appends a scheduling barrier.
func (c *Circuit) Barrier() *Circuit { c.Append(gate.NewBarrier()); return c }
