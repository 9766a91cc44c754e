package qasmbench

import (
	"svsim/internal/circuit"
	"svsim/internal/gate"
)

// Quantum arithmetic workloads: the Cuccaro (CDKM) ripple-carry adder
// behind Table 4's bigadder, and the shift-add multiplier behind multiply
// (3x5 on 13 qubits) and multiplier (15 qubits).

// appendMAJ appends the Cuccaro MAJ block on (x, y, z): the carry
// propagates into z.
func appendMAJ(c *circuit.Circuit, x, y, z int) {
	c.CX(z, y)
	c.CX(z, x)
	c.Append(gate.NewCCX(x, y, z))
}

// appendUMA appends the Cuccaro UMA block, undoing MAJ and finalizing the
// sum bit in y.
func appendUMA(c *circuit.Circuit, x, y, z int) {
	c.Append(gate.NewCCX(x, y, z))
	c.CX(z, x)
	c.CX(x, y)
}

// appendCuccaroAdd appends b += a for equal-width registers with a zeroed
// carry-in ancilla and a carry-out target (b gets the sum, a and cin are
// preserved, cout receives the carry via one CX).
func appendCuccaroAdd(c *circuit.Circuit, a, b []int, cin, cout int) {
	if len(a) != len(b) || len(a) == 0 {
		panic("qasmbench: Cuccaro add needs equal non-empty widths")
	}
	w := len(a)
	appendMAJ(c, cin, b[0], a[0])
	for i := 1; i < w; i++ {
		appendMAJ(c, a[i-1], b[i], a[i])
	}
	c.CX(a[w-1], cout)
	for i := w - 1; i >= 1; i-- {
		appendUMA(c, a[i-1], b[i], a[i])
	}
	appendUMA(c, cin, b[0], a[0])
}

// setConst appends X gates loading the classical value into a register.
func setConst(c *circuit.Circuit, reg []int, val uint64) {
	for i, q := range reg {
		if val>>uint(i)&1 == 1 {
			c.X(q)
		}
	}
}

// BigAdder builds the n-qubit Cuccaro ripple-carry adder computing
// aval + bval. Layout: cin, a[w], b[w], cout with n = 2w+2 (w=8 at n=18,
// Table 4's bigadder). The result appears in the b register with the
// carry in cout. The compound Toffolis are lowered like QASMBench's
// low-level source.
func BigAdder(n int, aval, bval uint64) *circuit.Circuit {
	if n < 4 || n%2 != 0 {
		panic("qasmbench: BigAdder needs an even qubit count >= 4")
	}
	w := (n - 2) / 2
	c := circuit.New("bigadder", n)
	cin := 0
	a := make([]int, w)
	b := make([]int, w)
	for i := 0; i < w; i++ {
		a[i] = 1 + i
		b[i] = 1 + w + i
	}
	cout := n - 1
	setConst(c, a, aval)
	setConst(c, b, bval)
	appendCuccaroAdd(c, a, b, cin, cout)
	return c
}

// BigAdderLayout reports the register layout of BigAdder for result
// decoding: the b register qubits and the carry-out qubit.
func BigAdderLayout(n int) (b []int, cout int) {
	w := (n - 2) / 2
	b = make([]int, w)
	for i := 0; i < w; i++ {
		b[i] = 1 + w + i
	}
	return b, n - 1
}

// MultiplierCircuit builds the shift-add quantum multiplier computing
// aval * bval. Layout: a[wa], b[wb], prod[wa+wb], t[wa] (partial-product
// ancillas), cin — n = 3*wa + 2*wb + 1 qubits. For each bit j of b the
// partial products a_i AND b_j are computed into t with Toffolis, added
// into the product window [j, j+wa) with a Cuccaro ripple (the carry-out
// lands on the untouched qubit prod[j+wa]), and uncomputed.
func MultiplierCircuit(name string, wa, wb int, aval, bval uint64) *circuit.Circuit {
	n := 3*wa + 2*wb + 1
	c := circuit.New(name, n)
	a := seqRange(0, wa)
	b := seqRange(wa, wb)
	prod := seqRange(wa+wb, wa+wb)
	t := seqRange(2*(wa+wb), wa)
	cin := n - 1
	setConst(c, a, aval)
	setConst(c, b, bval)
	for j := 0; j < wb; j++ {
		for i := 0; i < wa; i++ {
			c.Append(gate.NewCCX(a[i], b[j], t[i]))
		}
		window := prod[j : j+wa]
		appendCuccaroAdd(c, t, window, cin, prod[j+wa])
		for i := 0; i < wa; i++ {
			c.Append(gate.NewCCX(a[i], b[j], t[i]))
		}
	}
	return c
}

func seqRange(lo, w int) []int {
	out := make([]int, w)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

// Multiply is Table 4's multiply: 3x5 on 13 qubits (wa=2, wb=3).
func Multiply() *circuit.Circuit {
	return MultiplierCircuit("multiply", 2, 3, 3, 5)
}

// Multiplier15 is Table 4's multiplier: a 15-qubit instance (wa=2, wb=4)
// computing 3 x 13.
func Multiplier15() *circuit.Circuit {
	return MultiplierCircuit("multiplier", 2, 4, 3, 13)
}
