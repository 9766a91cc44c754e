package compile

import (
	"math/bits"

	"svsim/internal/circuit"
	"svsim/internal/fusion"
	"svsim/internal/gate"
)

// Diagonal runs: a stretch of consecutive, unconditional, statically
// diagonal gates is a product of terms "multiply by a phase where all
// qubits of a mask are 1" (gate.DiagTerm), so the runtime executes it as
// ONE pass over the amplitudes some term changes instead of one pass per
// gate (statevec.DiagTables holds the kernel). Marking is a property of
// the executable stream alone — kinds, operands, the register size and
// whether the plan is fused, never angles, backend, fleet size, tiling or
// schedule — so it lives in the cached template and every backend merges
// the same stretches.
//
// A fused plan's runs also see through cx (the lowered cu1 is u1 cx u1
// cx u1): a window of cx and diagonal gates whose cx network composes to
// the identity is diagonal too. Inside it each qubit holds a GF(2) parity
// of the window-start qubits (cx c,t: P[t] ^= P[c]), and a 1q phase f on
// a qubit holding parity P is f^(x_P) = the product over non-empty S ⊆ P
// of f^((−2)^(|S|−1)) where all of S is 1 (the inclusion–exclusion form
// of XOR), so the window's normal form is again a product of DiagTerms.

// maxParity caps the qubits a window's parity may span: a 1q phase on a
// parity of k qubits expands to 2^k − 1 terms.
const maxParity = 3

// maxGateTerms bounds the terms one window member contributes: a 1q
// gate's phase expanded over a parity of maxParity qubits beside its
// global phase (rz), or a gate's own at most gate.MaxDiagTerms.
const maxGateTerms = 1 << maxParity

// maxWindowGates caps the ops one walk through cx may visit. A walk that
// finds no window moves on by one op, so the cap is what keeps marking a
// long cx stretch that never returns to the identity linear in its
// length; a QFT(20) ladder, the longest window of the suite, holds 95.
const maxWindowGates = 256

// maxTableBits caps the logical qubits one table of a run is indexed by:
// 2^11 entries of 16 bytes is 32 KiB, two tables stay inside a core's
// private cache next to the amplitudes streaming through.
const maxTableBits = 11

// Run is one stretch of the plan the runtime executes as a single step:
// steps [Step, Step+Gates), executing ops [Op, Op+Gates) of the
// executable stream. It is a diagonal run or, with Pauli set, a Pauli
// gadget (gadget.go); a plan keeps only the runs whose steps are
// consecutive gate steps (a remap a lazy plan puts before a window's cx
// drops the window).
type Run struct {
	Step, Op, Gates int
	// ThroughCX marks a diagonal run with cx members (a fused plan's
	// window whose cx network composes to the identity).
	ThroughCX bool
	// Pauli is the rotation a gadget multiplies out to; nil for a diagonal
	// run, whose shape the fields below hold.
	Pauli *fusion.Gadget
	// Pinned is the intersection of every term's mask: the pass visits
	// only amplitudes with all of these logical qubits set (QFT: the
	// qubit a CU1 ladder shares, so half the state is never loaded).
	Pinned uint64
	// Qubits are the logical qubits indexing each of the two tables,
	// Pinned excluded; Qubits[1] == 0 means a single table.
	Qubits [2]uint64
	// Table assigns each term — the members' terms in stream order, as
	// Terms lists them — to the table that holds all of its mask.
	Table []uint8
}

// Terms appends the run's normal form — its members' terms in stream
// order, phases read from the gates as bound in ops — to dst: what
// statevec.DiagTables.Prepare takes beside Pinned, Qubits and Table. It
// replays the marking walk's cx network, so a member on a qubit holding
// a parity contributes that parity's expansion; a run without cx lists
// exactly its gates' AppendDiagTerms.
func (r *Run) Terms(ops []circuit.Op, dst []gate.DiagTerm) []gate.DiagTerm {
	var net parity
	for i := r.Op; i < r.Op+r.Gates; i++ {
		if g := &ops[i].G; g.Kind == gate.CX {
			net.cx(g.Qubits[0], g.Qubits[1])
		} else {
			dst, _ = net.appendTerms(g, dst)
		}
	}
	return dst
}

// parity is the state of a window's cx network: qubit q holds the XOR of
// the window-start qubits in p[q]. Only the dirty qubits — those holding
// anything but themselves — read p, so the zero value is the identity.
type parity struct {
	p     [64]uint64
	dirty uint64
}

// of returns the parity qubit q holds.
func (s *parity) of(q int32) uint64 {
	if s.dirty>>uint(q)&1 == 0 {
		return 1 << uint(q)
	}
	return s.p[q]
}

// cx applies cx c,t, or reports false, leaving the network as it was,
// when t's parity would span more than maxParity qubits.
func (s *parity) cx(c, t int32) bool {
	p := s.of(t) ^ s.of(c)
	if bits.OnesCount64(p) > maxParity {
		return false
	}
	s.p[t] = p
	if p == 1<<uint(t) {
		s.dirty &^= 1 << uint(t)
	} else {
		s.dirty |= 1 << uint(t)
	}
	return true
}

// appendTerms appends the normal form of diagonal gate g as it acts on
// the window-start basis: each term of a 1q gate on a qubit holding a
// parity P becomes one term per non-empty S ⊆ P (ascending) with phase
// f^((−2)^(|S|−1)). It reports false, appending nothing, for a gate of
// two or more operands on a qubit holding a non-trivial parity.
func (s *parity) appendTerms(g *gate.Gate, dst []gate.DiagTerm) ([]gate.DiagTerm, bool) {
	var on uint64
	for _, q := range g.Qubits[:g.NQ] {
		on |= 1 << uint(q)
	}
	if on&s.dirty == 0 {
		return g.AppendDiagTerms(dst), true
	}
	if g.NQ > 1 {
		return dst, false
	}
	p := s.p[g.Qubits[0]]
	var own [gate.MaxDiagTerms]gate.DiagTerm
	for _, t := range g.AppendDiagTerms(own[:0]) {
		if t.Mask == 0 {
			dst = append(dst, t)
			continue
		}
		// f, f^−2 = conj(f²) and f^4 = (f²)² of a unit-modulus f.
		re2, im2 := t.Re*t.Re-t.Im*t.Im, 2*t.Re*t.Im
		pow := [maxParity][2]float64{{t.Re, t.Im}, {re2, -im2}, {re2*re2 - im2*im2, 2 * re2 * im2}}
		for sub := -p & p; sub != 0; sub = (sub - p) & p {
			f := pow[bits.OnesCount64(sub)-1]
			dst = append(dst, gate.DiagTerm{Mask: sub, Re: f[0], Im: f[1]})
		}
	}
	return dst, true
}

// mergeable reports whether op can be a member of a diagonal run. A
// conditional op cannot (its effect depends on the classical register),
// nor can the operand-less BARRIER, which thereby forces a run open.
func mergeable(op *circuit.Op) bool {
	k := op.G.Kind
	return op.Cond == nil && k.Diagonal() && k.NumQubits() > 0
}

// tableBits is the table width for an n-qubit register: two tables may
// never hold more than a quarter of 2^n entries, or building them would
// rival the pass they save.
func tableBits(n int) int {
	return max(2, min(maxTableBits, n-3))
}

// runShape is a run under construction.
type runShape struct {
	pinned uint64
	qubits [2]uint64
	table  []uint8
}

// add appends one gate's terms, or reports that they do not fit beside
// the ones already there (the shape is then unchanged). A term goes to
// the first table whose qubit set, with the term's mask joined in, stays
// within width; a qubit that stops being common to all terms moves from
// the pinned set into every table in use.
func (s *runShape) add(terms []gate.DiagTerm, width int) bool {
	next := *s
	for _, t := range terms {
		if len(next.table) == 0 {
			next.pinned = t.Mask
		} else if drop := next.pinned &^ t.Mask; drop != 0 {
			next.pinned &^= drop
			next.qubits[0] |= drop
			if next.qubits[1] != 0 {
				next.qubits[1] |= drop
			}
		}
		m := t.Mask &^ next.pinned
		tb := 0
		if bits.OnesCount64(next.qubits[0]|m) > width {
			tb = 1
		}
		next.qubits[tb] |= m
		if bits.OnesCount64(next.qubits[0]) > width || bits.OnesCount64(next.qubits[1]) > width {
			return false
		}
		next.table = append(next.table, uint8(tb))
	}
	*s = next
	return true
}

// DiagRuns marks the diagonal runs of an executable stream, in stream
// order with Step == Op (the numbering of a plan that is one gate step
// per op); fused selects a fused plan's rule, whose windows see through
// cx. From each op the walk takes the longest window of two or more
// members, one of them diagonal, that ends with the cx network back at
// the identity and whose terms fit the two tables; it stops at any other
// op, at a cx that would widen a parity past maxParity, at a gate of two
// or more operands on a non-trivial parity, and at a gate whose terms do
// not fit. A window becomes a run and the walk goes on behind it; with no
// window the op executes as the gate it is and the walk moves on by one.
// Without cx a stretch is thereby cut greedily where the tables overflow.
// A walk depends on the ops from its start only, so the runs of a stream
// cut at a step boundary are the runs behind the cut: an elastic shrink
// that recompiles the residual circuit executes the same passes as the
// uninterrupted run.
func DiagRuns(c *circuit.Circuit, fused bool) []Run {
	return diagRuns(c, 0, len(c.Ops), fused, nil)
}

// diagRuns appends the diagonal runs of ops [from, to) to runs.
func diagRuns(c *circuit.Circuit, from, to int, fused bool, runs []Run) []Run {
	width := tableBits(c.NumQubits)
	for i := from; i < to; {
		if run, ok := window(c, i, to, width, fused); ok {
			runs = append(runs, run)
			i += run.Gates
		} else {
			i++
		}
	}
	return runs
}

// window returns the longest run of ops [i, to) that starts at op i, or
// false when there is none (DiagRuns' rule).
func window(c *circuit.Circuit, i, to, width int, throughCX bool) (Run, bool) {
	var net parity
	var shape runShape
	var buf [maxGateTerms]gate.DiagTerm
	var run Run
	diag, cx := false, false
	if throughCX {
		to = min(to, i+maxWindowGates)
	}
walk:
	for j := i; j < to; j++ {
		op := &c.Ops[j]
		switch {
		case throughCX && op.Cond == nil && op.G.Kind == gate.CX:
			if !net.cx(op.G.Qubits[0], op.G.Qubits[1]) {
				break walk
			}
			cx = true
		case mergeable(op):
			// A lone gate always fits: two operands, width >= 2.
			terms, ok := net.appendTerms(&op.G, buf[:0])
			if !ok || !shape.add(terms, width) {
				break walk
			}
			diag = true
		default:
			break walk
		}
		if j > i && diag && net.dirty == 0 {
			run = Run{Step: i, Op: i, Gates: j + 1 - i, ThroughCX: cx,
				Pinned: shape.pinned, Qubits: shape.qubits, Table: shape.table}
		}
	}
	return run, run.Gates > 0
}

// markRuns lists what the plan executes as one step each, in stream order
// with Step == Op: the gadgets fusion marked, and the diagonal runs of
// the stretches between them (a gadget's members stay the gates they
// are, so a run never reaches into one).
func markRuns(c *circuit.Circuit, gadgets []fusion.Gadget, fused bool) []Run {
	var runs []Run
	from := 0
	for i := range gadgets {
		g := &gadgets[i]
		runs = diagRuns(c, from, g.First, fused, runs)
		runs = append(runs, Run{Step: g.First, Op: g.First, Gates: g.Gates(), Pauli: g})
		from = g.Last + 1
	}
	return diagRuns(c, from, len(c.Ops), fused, runs)
}

// runStats counts runs by kind: the diagonal runs, those through cx and
// the gates inside them, the gadgets and the gates inside those.
func (st *Stats) runStats(runs []Run) {
	for i := range runs {
		r := &runs[i]
		if r.Pauli != nil {
			st.Gadgets++
			st.GadgetGates += r.Gates
			continue
		}
		st.DiagRuns++
		st.Merged += r.Gates
		if r.ThroughCX {
			st.ThroughCX++
		}
	}
}
