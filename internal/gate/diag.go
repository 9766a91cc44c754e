package gate

import (
	"fmt"
	"math"
)

// DiagTerm is one factor of a statically diagonal gate's normal form:
// multiply the amplitude by Re + i·Im wherever every qubit of Mask is 1
// (an empty Mask is a global phase). Every diagonal kind is a product of
// at most three such terms, and a stretch of diagonal gates is the
// product of all of theirs — the form the runtime merges into one pass
// (compile.Run, statevec.DiagTables).
type DiagTerm struct {
	Mask   uint64
	Re, Im float64
}

// MaxDiagTerms is the most terms one gate contributes (rzz).
const MaxDiagTerms = 3

// AppendDiagTerms appends the normal form of g to dst: the controlled
// kinds put their controls into every mask, rz is a global phase times
// u1, and the qelib1 rzz diag(1, e^{it}, e^{it}, 1) is u1(t) on each
// qubit times cu1(-2t). The masks depend on the kind and operands only,
// the phases on the bound angles; gphase is one term with an empty
// mask. It panics unless g's kind is Diagonal() and unitary.
func (g *Gate) AppendDiagTerms(dst []DiagTerm) []DiagTerm {
	var all uint64
	for _, q := range g.Qubits[:g.NQ] {
		all |= 1 << uint(q)
	}
	unit := func(mask uint64, theta float64) DiagTerm {
		return DiagTerm{mask, math.Cos(theta), math.Sin(theta)}
	}
	switch g.Kind.BaseKind() {
	case ID:
		return dst
	case Z:
		return append(dst, DiagTerm{all, -1, 0})
	case S:
		return append(dst, DiagTerm{all, 0, 1})
	case SDG:
		return append(dst, DiagTerm{all, 0, -1})
	case T:
		return append(dst, DiagTerm{all, s2i, s2i})
	case TDG:
		return append(dst, DiagTerm{all, s2i, -s2i})
	case U1, GPHASE:
		return append(dst, unit(all, g.Params[0]))
	case RZ:
		return append(dst, unit(g.ControlMask(), -g.Params[0]/2), unit(all, g.Params[0]))
	case RZZ:
		t := g.Params[0]
		return append(dst, unit(1<<uint(g.Qubits[0]), t), unit(1<<uint(g.Qubits[1]), t), unit(all, -2*t))
	}
	panic(fmt.Sprintf("gate: %s has no diagonal normal form", g.Kind))
}
