package qasmbench

import (
	"svsim/internal/circuit"
	"svsim/internal/decomp"
)

// Grover-style workloads: the 3-SAT instance behind Table 4's sat and the
// amplitude-amplification square root behind square_root.

// satClause is a disjunction of literals (variable index, negated flag).
type satClause []satLit

type satLit struct {
	v   int
	neg bool
}

// satInstance is the 11-qubit instance: 4 variables, 5 clauses. Satisfying
// assignments (v3 v2 v1 v0): the tests' SATSolutions enumerates them.
var satInstance = []satClause{
	{{0, false}, {1, false}},            // v0 | v1
	{{0, true}, {2, false}},             // !v0 | v2
	{{1, false}, {2, true}, {3, false}}, // v1 | !v2 | v3
	{{1, true}, {3, true}},              // !v1 | !v3
	{{2, false}, {3, false}},            // v2 | v3
}

// SAT builds the Grover search for the built-in 3-SAT instance on n=11
// qubits: variables q0-q3, clause ancillas q4-q8, oracle output q9, and a
// phase-kickback qubit q10. One Grover iteration (the instance has several
// solutions, so a single iteration already amplifies strongly).
func SAT(n int) *circuit.Circuit {
	if n != 11 {
		panic("qasmbench: the sat instance is defined for 11 qubits")
	}
	const nv = 4
	clauseAnc := seqRange(nv, len(satInstance))
	out := 9
	kick := 10
	c := circuit.New("sat", n)

	// Uniform superposition over variables; |-> on the kickback qubit.
	for v := 0; v < nv; v++ {
		c.H(v)
	}
	c.X(kick)
	c.H(kick)

	iterations := 1
	for it := 0; it < iterations; it++ {
		computeClauses(c, clauseAnc)
		// out = AND of all clauses (5 controls, ancilla-free recursion).
		for _, g := range decomp.MCX(clauseAnc, out) {
			c.Append(g)
		}
		// Phase kickback: flip the |-> qubit when out is set.
		c.CX(out, kick)
		// Uncompute.
		for _, g := range decomp.MCX(clauseAnc, out) {
			c.Append(g)
		}
		computeClauses(c, clauseAnc)
		// Diffusion over the variables.
		for v := 0; v < nv; v++ {
			c.H(v)
			c.X(v)
		}
		c.H(nv - 1)
		for _, g := range decomp.MCX(seqRange(0, nv-1), nv-1) {
			c.Append(g)
		}
		c.H(nv - 1)
		for v := 0; v < nv; v++ {
			c.X(v)
			c.H(v)
		}
	}
	return c
}

// computeClauses toggles each clause ancilla to the clause's truth value
// (self-inverse, so calling it twice uncomputes).
func computeClauses(c *circuit.Circuit, anc []int) {
	for ci, cl := range satInstance {
		// OR via De Morgan: the ancilla is flipped unless every literal is
		// false, i.e. X-conjugate so that all-controls-one means
		// "clause false", flip, then X the ancilla.
		var ctrls []int
		for _, l := range cl {
			if !l.neg {
				c.X(l.v) // make "literal false" read as control 1
			}
			ctrls = append(ctrls, l.v)
		}
		for _, g := range decomp.MCX(ctrls, anc[ci]) {
			c.Append(g)
		}
		c.X(anc[ci])
		for _, l := range cl {
			if !l.neg {
				c.X(l.v)
			}
		}
	}
}

// SquareRootTarget is the marked value whose amplitude square_root
// amplifies (the integer square root the circuit extracts).
const SquareRootTarget = 0b1011010

// SquareRoot builds the 18-qubit amplitude-amplification workload: 7 data
// qubits searched for SquareRootTarget, with the remaining qubits used as
// V-chain ancillas so the multi-controlled phase flips stay linear-size.
// Eight Grover iterations drive the success probability to ~1.
func SquareRoot(n int) *circuit.Circuit {
	if n < 13 {
		panic("qasmbench: square_root needs at least 13 qubits")
	}
	const d = 7
	data := seqRange(0, d)
	anc := seqRange(d, n-d)
	c := circuit.New("square_root", n)
	for _, q := range data {
		c.H(q)
	}
	iterations := 8
	for it := 0; it < iterations; it++ {
		// Oracle: phase-flip |target>.
		markState(c, data, SquareRootTarget, anc)
		// Diffusion.
		for _, q := range data {
			c.H(q)
		}
		markState(c, data, 0, anc)
		for _, q := range data {
			c.H(q)
		}
	}
	return c
}

// markState appends a phase flip on the basis state |val> of the data
// register, using a V-chain multi-controlled Z.
func markState(c *circuit.Circuit, data []int, val int, anc []int) {
	for i, q := range data {
		if val>>uint(i)&1 == 0 {
			c.X(q)
		}
	}
	last := data[len(data)-1]
	c.H(last)
	for _, g := range decomp.MCXVChain(data[:len(data)-1], last, anc) {
		c.Append(g)
	}
	c.H(last)
	for i, q := range data {
		if val>>uint(i)&1 == 0 {
			c.X(q)
		}
	}
}
