// Package qir implements the Microsoft QIR-runtime simulator interface of
// the paper's Table 2: the gate-function API that a user-defined simulator
// concretizes so that Q# programs (compiled to QIR) execute against it.
// SV-Sim's Q# support works exactly this way ("we developed a wrapper in
// C++ to connect SV-Sim to QIR-runtime"); this package is that wrapper's
// Go equivalent. The verbs build a circuit, and a program that observes a
// result runs it through core — the compile pipeline and the backends a
// QASM circuit takes — so a QIR program reaches the same simulator.
package qir

import (
	"fmt"
	"slices"

	"svsim/internal/circuit"
	"svsim/internal/ckpt"
	"svsim/internal/core"
	"svsim/internal/decomp"
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

// Simulator is a QIR target on one row of core's backend table. Every
// verb appends its gates to a pending circuit; M, Probability and State
// flush it through core.RunFrom, continuing from the state the previous
// flush left and the draws its measurements and resets took, so outcomes
// follow the seed's one stream. A flush is fused — Exp's window runs as
// one Pauli-gadget pass — on the vectorized kernels.
type Simulator struct {
	backend string
	cfg     core.Config
	pending *circuit.Circuit
	held    ckpt.WarmStart
}

// NewSimulator returns an n-qubit simulator at |0...0> on backend over
// pes PEs (see core.Config.PEs); seed drives measurement.
func NewSimulator(backend string, pes, n int, seed int64) (*Simulator, error) {
	s := &Simulator{
		backend: backend,
		cfg:     core.Config{Seed: seed, PEs: pes, Fuse: true, Style: statevec.Vectorized},
		pending: &circuit.Circuit{Name: "qir", NumQubits: n, NumClbits: 1},
	}
	if _, err := s.run(); err != nil {
		return nil, err
	}
	return s, nil
}

// run executes the pending verbs from the held state (a fresh run the
// first time) and holds the result.
func (s *Simulator) run() (*core.Result, error) {
	var start *ckpt.WarmStart
	if s.held.State != nil {
		start = &s.held
	}
	res, err := core.RunFrom(s.backend, s.cfg, s.pending, start)
	if err != nil {
		return nil, err
	}
	for i := range s.pending.Ops {
		if k := s.pending.Ops[i].G.Kind; k == gate.MEASURE || k == gate.RESET {
			s.held.Draws++
		}
	}
	s.held.State, s.pending.Ops = res.State, nil
	return res, nil
}

// flush is run for a verb, which returns no error: the backend and grid
// were accepted at NewSimulator and every op at its verb, so a failure
// here is the runtime's own.
func (s *Simulator) flush() *core.Result {
	res, err := s.run()
	if err != nil {
		panic(fmt.Sprintf("qir: %v", err))
	}
	return res
}

// add appends what one verb lowers to, each op checked by
// circuit.ValidateOp. Table 2's verbs return no error, so a bad operand
// panics at the call, naming the verb, and leaves nothing pending.
func (s *Simulator) add(verb string, lower func(c *circuit.Circuit)) {
	c := s.pending
	if cap(c.Ops)-len(c.Ops) < 256 {
		// Double: append's 1.25x steps on a long slice would zero and copy
		// a long program's ops several times over.
		c.Ops = slices.Grow(c.Ops, len(c.Ops)+256)
	}
	start := len(c.Ops)
	defer func() {
		if r := recover(); r != nil {
			c.Ops = c.Ops[:start]
			panic(fmt.Sprintf("qir: %s: %v", verb, r))
		}
	}()
	lower(c)
	for i := start; i < len(c.Ops); i++ {
		if err := c.ValidateOp(i); err != nil {
			panic(err)
		}
	}
}

// one appends kind k on qubit q under ctrls (none for the uncontrolled
// verbs).
func (s *Simulator) one(verb string, k gate.Kind, ctrls []int, q int) {
	s.add(verb, func(c *circuit.Circuit) { c.Append(decomp.Controlled(gate.New(k, []int{q}), ctrls)...) })
}

// State runs the pending verbs and returns the state the program has
// reached; the next flush continues from it.
func (s *Simulator) State() *statevec.State {
	if len(s.pending.Ops) > 0 {
		s.flush()
	}
	return s.held.State
}

// X applies Pauli-X (Table 2).
func (s *Simulator) X(q int) { s.one("X", gate.X, nil, q) }

// Y applies Pauli-Y.
func (s *Simulator) Y(q int) { s.one("Y", gate.Y, nil, q) }

// Z applies Pauli-Z.
func (s *Simulator) Z(q int) { s.one("Z", gate.Z, nil, q) }

// H applies the Hadamard.
func (s *Simulator) H(q int) { s.one("H", gate.H, nil, q) }

// S applies the S gate.
func (s *Simulator) S(q int) { s.one("S", gate.S, nil, q) }

// T applies the T gate.
func (s *Simulator) T(q int) { s.one("T", gate.T, nil, q) }

// AdjointS applies S-dagger (Table 2: same as SDG).
func (s *Simulator) AdjointS(q int) { s.one("AdjointS", gate.SDG, nil, q) }

// AdjointT applies T-dagger (Table 2: same as TDG).
func (s *Simulator) AdjointT(q int) { s.one("AdjointT", gate.TDG, nil, q) }

// R applies the unified rotation exp(-i theta P / 2) about the given
// Pauli axis; R about I is the global phase exp(-i theta / 2).
func (s *Simulator) R(axis Pauli, theta float64, q int) {
	s.add("R", func(c *circuit.Circuit) { c.Append(rotation(axis, theta, q)) })
}

// rotation is R's gate.
func rotation(axis Pauli, theta float64, q int) gate.Gate {
	switch axis {
	case PauliX:
		return gate.NewRX(theta, q)
	case PauliY:
		return gate.NewRY(theta, q)
	case PauliZ:
		return gate.NewRZ(theta, q)
	case PauliI:
		return gate.NewGPhase(-theta / 2)
	}
	panic(fmt.Sprintf("bad Pauli axis %q", string(axis)))
}

// ControlledX applies X under any number of controls (CX and Toffoli are
// the 1- and 2-control cases of Table 2's ControlledX).
func (s *Simulator) ControlledX(ctrls []int, q int) { s.one("ControlledX", gate.X, ctrls, q) }

// ControlledY applies a multi-controlled Y.
func (s *Simulator) ControlledY(ctrls []int, q int) { s.one("ControlledY", gate.Y, ctrls, q) }

// ControlledZ applies a multi-controlled Z (equals CZ for one control).
func (s *Simulator) ControlledZ(ctrls []int, q int) { s.one("ControlledZ", gate.Z, ctrls, q) }

// ControlledH applies a multi-controlled Hadamard.
func (s *Simulator) ControlledH(ctrls []int, q int) { s.one("ControlledH", gate.H, ctrls, q) }

// ControlledS applies a multi-controlled S.
func (s *Simulator) ControlledS(ctrls []int, q int) { s.one("ControlledS", gate.S, ctrls, q) }

// ControlledT applies a multi-controlled T.
func (s *Simulator) ControlledT(ctrls []int, q int) { s.one("ControlledT", gate.T, ctrls, q) }

// ControlledAdjointS applies a multi-controlled SDG.
func (s *Simulator) ControlledAdjointS(ctrls []int, q int) {
	s.one("ControlledAdjointS", gate.SDG, ctrls, q)
}

// ControlledAdjointT applies a multi-controlled TDG.
func (s *Simulator) ControlledAdjointT(ctrls []int, q int) {
	s.one("ControlledAdjointT", gate.TDG, ctrls, q)
}

// ControlledR applies a multi-controlled rotation. A controlled R about I
// is a controlled global phase, i.e. a multi-controlled phase gate on the
// control set.
func (s *Simulator) ControlledR(ctrls []int, axis Pauli, theta float64, q int) {
	s.add("ControlledR", func(c *circuit.Circuit) { c.Append(decomp.Controlled(rotation(axis, theta, q), ctrls)...) })
}

// Exp applies the multi-qubit Pauli exponential e^{i theta P} over the
// given qubits (Table 2's Exp). Identity factors are dropped; an all-I
// operator is the global phase e^{i theta}.
func (s *Simulator) Exp(paulis []Pauli, theta float64, qubits []int) {
	s.add("Exp", func(c *circuit.Circuit) { c.ExpPauli(-2*theta, pauliTerms(paulis, qubits, c.NumQubits)) })
}

// ControlledExp applies the controlled Pauli exponential: Exp's window
// with its core rz (the global phase of an all-I operator) under the
// controls — the basis changes and CX ladders around it cancel where a
// control is 0.
func (s *Simulator) ControlledExp(ctrls []int, paulis []Pauli, theta float64, qubits []int) {
	s.add("ControlledExp", func(c *circuit.Circuit) {
		for _, op := range new(circuit.Circuit).ExpPauli(-2*theta, pauliTerms(paulis, qubits, c.NumQubits)).Ops {
			if k := op.G.Kind; k == gate.RZ || k == gate.GPHASE {
				c.Append(decomp.Controlled(op.G, ctrls)...)
			} else {
				c.Append(op.G)
			}
		}
	})
}

// pauliTerms drops the identity factors of a QIR Pauli operator on an
// n-qubit register; an identity factor's qubit never reaches a gate, so
// its range is checked here. Exp's e^{i theta P} is exp(-i alpha P / 2)
// at alpha = -2 theta, the rotation circuit.ExpPauli's window — one
// Pauli-gadget pass — applies.
func pauliTerms(paulis []Pauli, qubits []int, n int) []circuit.PauliTerm {
	if len(paulis) != len(qubits) {
		panic("operator/qubit length mismatch")
	}
	var terms []circuit.PauliTerm
	for i, p := range paulis {
		if q := qubits[i]; q < 0 || q >= n {
			panic(fmt.Sprintf("qubit %d outside register of size %d", q, n))
		}
		switch p {
		case PauliI:
		case PauliX, PauliY, PauliZ:
			terms = append(terms, circuit.PauliTerm{P: circuit.Pauli(p), Q: qubits[i]})
		default:
			panic(fmt.Sprintf("bad Pauli %q", string(p)))
		}
	}
	return terms
}

// M measures one qubit in the computational basis, collapsing the state,
// and returns the result (the QIR measurement verb).
func (s *Simulator) M(q int) int {
	s.add("M", func(c *circuit.Circuit) { c.Append(gate.NewMeasure(q, 0)) })
	return int(s.flush().Cbits & 1)
}

// Reset returns a qubit to |0>. It takes its draw when the next flush
// runs it.
func (s *Simulator) Reset(q int) {
	s.add("Reset", func(c *circuit.Circuit) { c.Reset(q) })
}

// Probability returns P(q = 1) without collapsing (diagnostic helper, as
// in the QIR runtime's diagnostics API).
func (s *Simulator) Probability(q int) float64 {
	st := s.State()
	if q < 0 || q >= st.N {
		panic(fmt.Sprintf("qir: Probability: qubit %d outside register of size %d", q, st.N))
	}
	return st.ProbOne(q)
}
