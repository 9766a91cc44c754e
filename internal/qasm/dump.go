package qasm

import (
	"fmt"
	"sort"
	"strings"

	"svsim/internal/circuit"
	"svsim/internal/gate"
)

// Dump serializes a circuit back to OpenQASM 2.0 using one flat register
// "q" and one flat classical register "c". Together with Parse it gives a
// round-trip path used by cmd/qasmdump and the frontend tests.
//
// An OpenQASM condition compares a whole classical register, so when some
// condition covers only part of the classical bits, the bits are declared
// as consecutive registers c0, c1, ... split at every condition's bounds.
// Dump panics on a circuit whose conditions overlap without sharing both
// bounds: no register layout expresses it (Parse never builds one).
func Dump(c *circuit.Circuit) string {
	var b strings.Builder
	b.WriteString("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n")
	if c.NumQubits > 0 {
		fmt.Fprintf(&b, "qreg q[%d];\n", c.NumQubits)
	}
	cregs := classicalRegs(c)
	for i := range cregs {
		fmt.Fprintf(&b, "creg %s[%d];\n", cregs[i].name, cregs[i].size)
	}
	for i := range c.Ops {
		op := &c.Ops[i]
		if op.Cond != nil {
			r := cregs[regAt(cregs, op.Cond.Offset)]
			if r.offset != op.Cond.Offset || r.size != op.Cond.Width {
				panic(fmt.Sprintf("qasm: condition on bits [%d,%d) of circuit %q straddles another condition's register",
					op.Cond.Offset, op.Cond.Offset+op.Cond.Width, c.Name))
			}
			fmt.Fprintf(&b, "if (%s == %d) ", r.name, op.Cond.Value)
		}
		g := &op.G
		switch g.Kind {
		case gate.MEASURE:
			r := cregs[regAt(cregs, int(g.Cbit))]
			fmt.Fprintf(&b, "measure q[%d] -> %s[%d];\n", g.Qubits[0], r.name, int(g.Cbit)-r.offset)
			continue
		case gate.RESET:
			fmt.Fprintf(&b, "reset q[%d];\n", g.Qubits[0])
			continue
		case gate.BARRIER:
			if c.NumQubits > 0 {
				b.WriteString("barrier q;\n")
			} else {
				b.WriteString("barrier;\n")
			}
			continue
		}
		b.WriteString(g.Kind.String())
		if g.NP > 0 {
			b.WriteByte('(')
			for j := 0; j < int(g.NP); j++ {
				if j > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%.17g", g.Params[j])
			}
			b.WriteByte(')')
		}
		b.WriteByte(' ')
		for j := 0; j < int(g.NQ); j++ {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "q[%d]", g.Qubits[j])
		}
		b.WriteString(";\n")
	}
	return b.String()
}

// classicalRegs splits the classical bits into the registers Dump
// declares, in bit order: one "c" over all of them unless a condition
// covers only part, then c0, c1, ... cut at every condition's bounds.
func classicalRegs(c *circuit.Circuit) []reg {
	if c.NumClbits == 0 {
		return nil
	}
	cuts := []int{0, c.NumClbits}
	for i := range c.Ops {
		if cond := c.Ops[i].Cond; cond != nil && (cond.Offset != 0 || cond.Width != c.NumClbits) {
			cuts = append(cuts, cond.Offset, cond.Offset+cond.Width)
		}
	}
	if len(cuts) == 2 {
		return []reg{{"c", 0, c.NumClbits}}
	}
	sort.Ints(cuts)
	var regs []reg
	for i := 1; i < len(cuts); i++ {
		if cuts[i] > cuts[i-1] {
			regs = append(regs, reg{fmt.Sprintf("c%d", len(regs)), cuts[i-1], cuts[i] - cuts[i-1]})
		}
	}
	return regs
}

// regAt is the index of the register in regs that holds bit.
func regAt(regs []reg, bit int) int {
	return sort.Search(len(regs), func(i int) bool { return regs[i].offset+regs[i].size > bit })
}
