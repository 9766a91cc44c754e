// Package qir implements the Microsoft QIR-runtime simulator interface of
// the paper's Table 2: the gate-function API that a user-defined simulator
// concretizes so that Q# programs (compiled to QIR) execute against it.
// SV-Sim's Q# support works exactly this way ("we developed a wrapper in
// C++ to connect SV-Sim to QIR-runtime"); this package is that wrapper's
// Go equivalent, driving the statevec kernels in immediate mode.
package qir

import (
	"fmt"
	"math/rand"

	"svsim/internal/circuit"
	"svsim/internal/gate"
	"svsim/internal/statevec"
)

// Pauli labels the QIR Pauli enum.
type Pauli byte

// QIR Pauli axis values.
const (
	PauliI Pauli = 'I'
	PauliX Pauli = 'X'
	PauliY Pauli = 'Y'
	PauliZ Pauli = 'Z'
)

// Simulator is an immediate-mode QIR target: every call applies directly
// to the state vector.
type Simulator struct {
	st  *statevec.State
	rng *rand.Rand
}

// NewSimulator allocates an n-qubit QIR simulator.
func NewSimulator(n int, seed int64) *Simulator {
	return &Simulator{st: statevec.New(n), rng: rand.New(rand.NewSource(seed))}
}

// State exposes the underlying state (read access for verification).
func (s *Simulator) State() *statevec.State { return s.st }

// X applies Pauli-X (Table 2).
func (s *Simulator) X(q int) { s.st.ApplyX(q) }

// Y applies Pauli-Y.
func (s *Simulator) Y(q int) { s.st.ApplyY(q) }

// Z applies Pauli-Z.
func (s *Simulator) Z(q int) { s.st.ApplyZ(q) }

// H applies the Hadamard.
func (s *Simulator) H(q int) { s.st.ApplyH(q) }

// S applies the S gate.
func (s *Simulator) S(q int) { s.st.ApplyS(q) }

// T applies the T gate.
func (s *Simulator) T(q int) { s.st.ApplyT(q) }

// AdjointS applies S-dagger (Table 2: same as SDG).
func (s *Simulator) AdjointS(q int) { s.st.ApplySDG(q) }

// AdjointT applies T-dagger (Table 2: same as TDG).
func (s *Simulator) AdjointT(q int) { s.st.ApplyTDG(q) }

// R applies the unified rotation exp(-i theta P / 2) about the given
// Pauli axis; R about I is the global phase exp(-i theta / 2).
func (s *Simulator) R(axis Pauli, theta float64, q int) {
	switch axis {
	case PauliX:
		s.st.ApplyRX(theta, q)
	case PauliY:
		s.st.ApplyRY(theta, q)
	case PauliZ:
		s.st.ApplyRZ(theta, q)
	case PauliI:
		s.st.ApplyGPhase(-theta / 2)
	default:
		panic(fmt.Sprintf("qir: bad Pauli axis %q", string(axis)))
	}
}

// rotationMatrix returns the exact 2x2 of R(axis, theta).
func rotationMatrix(axis Pauli, theta float64) gate.Matrix {
	switch axis {
	case PauliX:
		return gate.Unitary(gate.NewRX(theta, 0))
	case PauliY:
		return gate.Unitary(gate.NewRY(theta, 0))
	case PauliZ:
		return gate.Unitary(gate.NewRZ(theta, 0))
	}
	panic("qir: rotationMatrix needs X, Y, or Z")
}

// ControlledX applies X under any number of controls (CX and Toffoli are
// the 1- and 2-control cases of Table 2's ControlledX).
func (s *Simulator) ControlledX(ctrls []int, q int) { s.st.ApplyMCX(ctrls, q) }

// ControlledY applies a multi-controlled Y.
func (s *Simulator) ControlledY(ctrls []int, q int) {
	s.st.ApplyMC1Q(gate.Unitary(gate.NewY(0)), ctrls, q)
}

// ControlledZ applies a multi-controlled Z (equals CZ for one control).
func (s *Simulator) ControlledZ(ctrls []int, q int) {
	s.st.ApplyMC1Q(gate.Unitary(gate.NewZ(0)), ctrls, q)
}

// ControlledH applies a multi-controlled Hadamard.
func (s *Simulator) ControlledH(ctrls []int, q int) {
	s.st.ApplyMC1Q(gate.Unitary(gate.NewH(0)), ctrls, q)
}

// ControlledS applies a multi-controlled S.
func (s *Simulator) ControlledS(ctrls []int, q int) {
	s.st.ApplyMC1Q(gate.Unitary(gate.NewS(0)), ctrls, q)
}

// ControlledT applies a multi-controlled T.
func (s *Simulator) ControlledT(ctrls []int, q int) {
	s.st.ApplyMC1Q(gate.Unitary(gate.NewT(0)), ctrls, q)
}

// ControlledAdjointS applies a multi-controlled SDG.
func (s *Simulator) ControlledAdjointS(ctrls []int, q int) {
	s.st.ApplyMC1Q(gate.Unitary(gate.NewSDG(0)), ctrls, q)
}

// ControlledAdjointT applies a multi-controlled TDG.
func (s *Simulator) ControlledAdjointT(ctrls []int, q int) {
	s.st.ApplyMC1Q(gate.Unitary(gate.NewTDG(0)), ctrls, q)
}

// ControlledR applies a multi-controlled rotation. A controlled R about I
// is a controlled global phase, i.e. a multi-controlled phase gate on the
// control set.
func (s *Simulator) ControlledR(ctrls []int, axis Pauli, theta float64, q int) {
	if axis == PauliI {
		s.controlledPhase(ctrls, -theta/2)
		return
	}
	s.st.ApplyMC1Q(rotationMatrix(axis, theta), ctrls, q)
}

// controlledPhase multiplies states where every control is 1 by e^{i phi}.
func (s *Simulator) controlledPhase(ctrls []int, phi float64) {
	if len(ctrls) == 0 {
		s.st.ApplyGPhase(phi)
		return
	}
	u1 := gate.Unitary(gate.NewU1(phi, 0))
	s.st.ApplyMC1Q(u1, ctrls[:len(ctrls)-1], ctrls[len(ctrls)-1])
}

// Exp applies the multi-qubit Pauli exponential e^{i theta P} over the
// given qubits (Table 2's Exp). Identity factors are dropped; an all-I
// operator is the global phase e^{i theta}.
func (s *Simulator) Exp(paulis []Pauli, theta float64, qubits []int) {
	if len(paulis) != len(qubits) {
		panic("qir: Exp operator/qubit length mismatch")
	}
	terms := expTerms(paulis, qubits)
	if len(terms) == 0 {
		s.st.ApplyGPhase(theta)
		return
	}
	// e^{i theta P} is exp(-i alpha P / 2) at alpha = -2 theta: one pass of
	// the Pauli-rotation kernel instead of the ~4k+1 gates of the lowered
	// window (circuit.ExpPauli).
	rot := statevec.PauliRot{Theta: -2 * theta, Gates: 1}
	for _, t := range terms {
		if (rot.X|rot.Z)>>uint(t.Q)&1 == 1 {
			panic(fmt.Sprintf("qir: Exp names qubit %d twice", t.Q))
		}
		if t.P != circuit.PauliZ {
			rot.X |= 1 << uint(t.Q)
		}
		if t.P != circuit.PauliX {
			rot.Z |= 1 << uint(t.Q)
		}
	}
	s.st.ApplyPauliRot(&rot)
}

// ControlledExp applies the controlled Pauli exponential: basis changes
// and CX ladders are self-inverting when the core rotation is suppressed,
// so only the central RZ needs the controls.
func (s *Simulator) ControlledExp(ctrls []int, paulis []Pauli, theta float64, qubits []int) {
	if len(paulis) != len(qubits) {
		panic("qir: ControlledExp operator/qubit length mismatch")
	}
	terms := expTerms(paulis, qubits)
	if len(terms) == 0 {
		s.controlledPhase(ctrls, theta)
		return
	}
	// Basis change + ladder (uncontrolled).
	for _, t := range terms {
		switch t.P {
		case circuit.PauliX:
			s.st.ApplyH(t.Q)
		case circuit.PauliY:
			s.st.ApplySDG(t.Q)
			s.st.ApplyH(t.Q)
		}
	}
	last := terms[len(terms)-1].Q
	for i := 0; i < len(terms)-1; i++ {
		s.st.ApplyCX(terms[i].Q, last)
	}
	// Controlled core rotation exp(-i(-2 theta) Z/2).
	s.st.ApplyMC1Q(rotationMatrix(PauliZ, -2*theta), ctrls, last)
	for i := len(terms) - 2; i >= 0; i-- {
		s.st.ApplyCX(terms[i].Q, last)
	}
	for _, t := range terms {
		switch t.P {
		case circuit.PauliX:
			s.st.ApplyH(t.Q)
		case circuit.PauliY:
			s.st.ApplyH(t.Q)
			s.st.ApplyS(t.Q)
		}
	}
}

func expTerms(paulis []Pauli, qubits []int) []circuit.PauliTerm {
	var terms []circuit.PauliTerm
	for i, p := range paulis {
		switch p {
		case PauliI:
		case PauliX, PauliY, PauliZ:
			terms = append(terms, circuit.PauliTerm{P: circuit.Pauli(p), Q: qubits[i]})
		default:
			panic(fmt.Sprintf("qir: bad Pauli %q", string(p)))
		}
	}
	return terms
}

// M measures one qubit in the computational basis, collapsing the state,
// and returns the result (the QIR measurement verb).
func (s *Simulator) M(q int) int {
	return s.st.MeasureQubit(q, s.rng.Float64())
}

// Reset returns a qubit to |0>.
func (s *Simulator) Reset(q int) {
	s.st.ResetQubit(q, s.rng.Float64())
}

// Probability returns P(q = 1) without collapsing (diagnostic helper, as
// in the QIR runtime's diagnostics API).
func (s *Simulator) Probability(q int) float64 { return s.st.ProbOne(q) }
