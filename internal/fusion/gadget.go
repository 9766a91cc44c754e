package fusion

import (
	"sort"

	"svsim/internal/circuit"
	"svsim/internal/gate"
)

// Pauli gadgets: a contiguous, unconditional window L · rz(theta, q) · L†
// whose conjugators L are Cliffords is the single rotation
// exp(-i theta P / 2) about the Pauli string P = L† Z_q L — the form
// circuit.ExpPauli, decomp's RXX and CRZ lowerings and the QIR Exp verb
// emit, and all of a UCCSD ansatz. The pass marks such windows instead of
// fusing inside them: the members stay in the output verbatim and in
// order (so spans, step numbering and the per-gate path are those of the
// gates), and the runtime executes a marked window as one pass
// (statevec.PauliRot). Marking reads kinds, operands and conditions only,
// never an angle, so it is part of what every binding of a skeleton shares.

// Gadget is one marked window: output ops [First, Last] multiply out to
// exp(-i theta P / 2), theta being the angle of the rz at output op Core
// as bound.
type Gadget struct {
	First, Last, Core int
	// X has bit q set where P carries X or Y on qubit q, Z where it
	// carries Z or Y; Neg is P's sign.
	X, Z uint64
	Neg  bool
}

// Gates returns the number of ops in the window.
func (g *Gadget) Gates() int { return g.Last - g.First + 1 }

// conjugator reports whether op can be a member of L: an unconditional
// h, s, sdg or cx.
func conjugator(op *circuit.Op) bool {
	if op.Cond != nil {
		return false
	}
	switch op.G.Kind {
	case gate.H, gate.S, gate.SDG, gate.CX:
		return true
	}
	return false
}

// inverse reports whether conjugator b undoes conjugator a: the adjoint
// kind on the same operands in the same roles.
func inverse(a, b *gate.Gate) bool {
	switch {
	case a.Kind == gate.S:
		return b.Kind == gate.SDG && a.Qubits[0] == b.Qubits[0]
	case a.Kind == gate.SDG:
		return b.Kind == gate.S && a.Qubits[0] == b.Qubits[0]
	}
	return a.Kind == b.Kind && a.Qubits[0] == b.Qubits[0] && (a.NQ == 1 || a.Qubits[1] == b.Qubits[1])
}

// conjugate replaces the Pauli string (x, z, neg) by g† P g.
func conjugate(g *gate.Gate, x, z uint64, neg bool) (uint64, uint64, bool) {
	a := uint(g.Qubits[0])
	xa, za := x>>a&1, z>>a&1
	switch g.Kind {
	case gate.H: // X <-> Z, Y -> -Y
		neg = neg != (xa&za == 1)
		x, z = x&^(1<<a)|za<<a, z&^(1<<a)|xa<<a
	case gate.S: // S† P S: X -> -Y, Y -> X
		neg = neg != (xa&^za == 1)
		z ^= xa << a
	case gate.SDG: // S P S†: X -> Y, Y -> -X
		neg = neg != (xa&za == 1)
		z ^= xa << a
	case gate.CX: // X_c -> X_c X_t, Z_t -> Z_c Z_t
		b := uint(g.Qubits[1])
		xb, zb := x>>b&1, z>>b&1
		neg = neg != (xa&zb&(xb^za^1) == 1)
		x ^= xa << b
		z ^= zb << a
	}
	return x, z, neg
}

// markGadgets finds the Pauli gadgets of c, in order, as windows of
// source indices; no window contains an index of boundaries other than
// as its first op.
//
// A window grows from its rz. Walking the ops after it in order, each
// must be a conjugator that undoes the nearest not yet undone op before
// the rz on every qubit it touches — so the suffix is the prefix's
// inverse up to the order of members on disjoint qubits, which is how
// ExpPauli lays its trailing basis changes out (in term order, not
// mirrored). The walk stops at the first op that does not, and the
// window is the longest matched suffix whose partners form a contiguous
// prefix ending at the rz. A window needs a two-qubit member: a lone
// h rz h is a run for the 1q fusion. Windows never overlap; an op that
// is conditional, non-unitary, a BARRIER or a GPHASE, and a boundary,
// bound the windows on either side.
func markGadgets(c *circuit.Circuit, boundaries []int) []Gadget {
	if c.NumQubits > 64 {
		return nil
	}
	var out []Gadget
	// last[q] is the latest op before the walk that touches qubit q,
	// prev[i][k] the one before op i on its k-th operand (k < 2: all a
	// conjugator has). -1 is none.
	last := make([]int32, c.NumQubits)
	ptr := make([]int32, c.NumQubits)
	for q := range last {
		last[q] = -1
	}
	prev := make([][2]int32, len(c.Ops))
	floor := 0 // no window reaches below this index
	for i := range c.Ops {
		op := &c.Ops[i]
		g := &op.G
		if op.Cond != nil || !g.Kind.Unitary() || g.Kind == gate.BARRIER || g.Kind == gate.GPHASE {
			floor = i + 1
			continue
		}
		for k, q := range g.OperandQubits() {
			if k < 2 {
				prev[i][k] = last[q]
			}
			last[q] = int32(i)
		}
		if g.Kind != gate.RZ {
			continue
		}
		// The window may not reach across a block boundary on either side.
		b := sort.SearchInts(boundaries, i+1)
		lo, end := floor, len(c.Ops)
		if b > 0 && boundaries[b-1] > lo {
			lo = boundaries[b-1]
		}
		if b < len(boundaries) {
			end = boundaries[b]
		}
		copy(ptr, last)
		ptr[g.Qubits[0]] = prev[i][0]
		matched, first, best := 0, i, 0
		for k := i + 1; k < end && conjugator(&c.Ops[k]); k++ {
			s := &c.Ops[k].G
			j := ptr[s.Qubits[0]]
			if int(j) < lo || !conjugator(&c.Ops[j]) || !inverse(&c.Ops[j].G, s) ||
				s.NQ == 2 && ptr[s.Qubits[1]] != j {
				break
			}
			for t, q := range s.OperandQubits() {
				ptr[q] = prev[j][t]
			}
			matched++
			first = min(first, int(j))
			if i-first == matched {
				best = matched
			}
		}
		if best == 0 {
			continue
		}
		x, z, neg := uint64(0), uint64(1)<<uint(g.Qubits[0]), false
		twoQubit := false
		for j := i - 1; j >= i-best; j-- {
			x, z, neg = conjugate(&c.Ops[j].G, x, z, neg)
			twoQubit = twoQubit || c.Ops[j].G.NQ == 2
		}
		if !twoQubit {
			continue
		}
		out = append(out, Gadget{First: i - best, Last: i + best, Core: i, X: x, Z: z, Neg: neg})
		floor = i + best + 1
	}
	return out
}
