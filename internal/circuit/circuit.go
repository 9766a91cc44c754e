// Package circuit defines the circuit intermediate representation shared by
// every SV-Sim frontend (OpenQASM parser, QIR interface, Go builder API) and
// backend (single-device, scale-up, scale-out). It also hosts the
// QASMBench-style workload generators used throughout the paper's
// evaluation (Table 4) and the variational ansatz generators of §5.
package circuit

import (
	"fmt"

	"svsim/internal/gate"
)

// Condition gates an operation on a classical-register comparison, the
// OpenQASM `if (c == value) gate;` construct.
type Condition struct {
	Offset int    // first classical bit of the compared register
	Width  int    // number of bits in the compared register
	Value  uint64 // value the register must equal
}

// Op is one circuit operation: a gate, optionally guarded by a classical
// condition.
type Op struct {
	G    gate.Gate
	Cond *Condition
}

// Circuit is an ordered operation list over a flat qubit register and a
// flat classical-bit register.
type Circuit struct {
	Name      string
	NumQubits int
	NumClbits int
	Ops       []Op
}

// New creates an empty circuit.
func New(name string, numQubits int) *Circuit {
	return &Circuit{Name: name, NumQubits: numQubits}
}

// Append adds gates unconditionally.
func (c *Circuit) Append(gs ...gate.Gate) {
	for _, g := range gs {
		c.Ops = append(c.Ops, Op{G: g})
	}
}

// AppendCond adds a gate guarded by a classical condition.
func (c *Circuit) AppendCond(g gate.Gate, cond Condition) {
	cc := cond
	c.Ops = append(c.Ops, Op{G: g, Cond: &cc})
}

// NumGates returns the number of operations.
func (c *Circuit) NumGates() int { return len(c.Ops) }

// CountKind returns how many operations have the given kind, the statistic
// reported in Table 4's CX column.
func (c *Circuit) CountKind(k gate.Kind) int {
	n := 0
	for i := range c.Ops {
		if c.Ops[i].G.Kind == k {
			n++
		}
	}
	return n
}

// GateHistogram returns per-kind operation counts.
func (c *Circuit) GateHistogram() map[gate.Kind]int {
	h := make(map[gate.Kind]int)
	for i := range c.Ops {
		h[c.Ops[i].G.Kind]++
	}
	return h
}

// Validate checks that every operand index is inside the declared registers
// and that conditions reference valid classical bits.
func (c *Circuit) Validate() error {
	for i := range c.Ops {
		if err := c.ValidateOp(i); err != nil {
			return err
		}
	}
	return nil
}

// ValidateOp is Validate's check of op i alone, for a caller that walks
// the ops anyway (the compile pipeline's skeleton hash).
func (c *Circuit) ValidateOp(i int) error {
	op := &c.Ops[i]
	for _, q := range op.G.OperandQubits() {
		if q < 0 || int(q) >= c.NumQubits {
			return fmt.Errorf("circuit %q op %d (%s): qubit %d outside register of size %d",
				c.Name, i, op.G.Kind, q, c.NumQubits)
		}
	}
	if op.G.Kind == gate.MEASURE {
		if int(op.G.Cbit) < 0 || int(op.G.Cbit) >= c.NumClbits {
			return fmt.Errorf("circuit %q op %d: classical bit %d outside register of size %d",
				c.Name, i, op.G.Cbit, c.NumClbits)
		}
	}
	if op.Cond != nil {
		if op.Cond.Offset < 0 || op.Cond.Offset+op.Cond.Width > c.NumClbits {
			return fmt.Errorf("circuit %q op %d: condition bits [%d,%d) outside classical register of size %d",
				c.Name, i, op.Cond.Offset, op.Cond.Offset+op.Cond.Width, c.NumClbits)
		}
	}
	return nil
}

// UnitaryOnly reports whether the circuit contains no measurement, reset,
// or conditional operations (so it can run on backends without classical
// feedback).
func (c *Circuit) UnitaryOnly() bool {
	for i := range c.Ops {
		if !c.Ops[i].G.Kind.Unitary() || c.Ops[i].Cond != nil {
			return false
		}
	}
	return true
}

// StripNonUnitary returns a copy without measurements, resets, barriers,
// and conditions — the form used for pure state-evolution benchmarking,
// where the paper reports simulation time of the gate sequence itself.
func (c *Circuit) StripNonUnitary() *Circuit {
	out := &Circuit{Name: c.Name, NumQubits: c.NumQubits, NumClbits: c.NumClbits}
	for i := range c.Ops {
		op := c.Ops[i]
		if op.Cond != nil || !op.G.Kind.Unitary() || op.G.Kind == gate.BARRIER {
			continue
		}
		out.Ops = append(out.Ops, Op{G: op.G})
	}
	return out
}

// Gates returns the plain gate sequence (panics if the circuit has
// conditional operations; strip or handle them first).
func (c *Circuit) Gates() []gate.Gate {
	gs := make([]gate.Gate, len(c.Ops))
	for i := range c.Ops {
		if c.Ops[i].Cond != nil {
			panic("circuit: Gates() on a circuit with classical conditions")
		}
		gs[i] = c.Ops[i].G
	}
	return gs
}

// Inverse returns the adjoint circuit: gates reversed with each replaced
// by its adjoint sequence, so that c followed by c.Inverse() is the
// identity. It panics if the circuit contains non-unitary or conditioned
// operations (those have no inverse).
func (c *Circuit) Inverse() *Circuit {
	out := &Circuit{Name: c.Name + "-inverse", NumQubits: c.NumQubits, NumClbits: c.NumClbits}
	for i := len(c.Ops) - 1; i >= 0; i-- {
		op := &c.Ops[i]
		if op.Cond != nil || !op.G.Kind.Unitary() {
			panic(fmt.Sprintf("circuit: cannot invert non-unitary op %s", op.G.Kind))
		}
		if op.G.Kind == gate.BARRIER {
			out.Append(op.G)
			continue
		}
		out.Append(gate.Adjoint(op.G)...)
	}
	return out
}

// Concat appends another circuit's operations (registers must be
// compatible: o may not reference qubits or clbits beyond c's).
func (c *Circuit) Concat(o *Circuit) *Circuit {
	if o.NumQubits > c.NumQubits || o.NumClbits > c.NumClbits {
		panic("circuit: Concat operand uses registers beyond the receiver's")
	}
	c.Ops = append(c.Ops, o.Ops...)
	return c
}

// Summary returns a Table 4 style one-line description.
func (c *Circuit) Summary() string {
	return fmt.Sprintf("%s: qubits=%d gates=%d cx=%d",
		c.Name, c.NumQubits, c.NumGates(), c.CountKind(gate.CX))
}
