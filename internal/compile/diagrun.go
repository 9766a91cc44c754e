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
// the executable stream alone — kinds, operands and the register size,
// never angles, backend, fleet size, tiling or schedule — so it lives in
// the cached template and every backend merges the same stretches.

// maxTableBits caps the logical qubits one table of a run is indexed by:
// 2^11 entries of 16 bytes is 32 KiB, two tables stay inside a core's
// private cache next to the amplitudes streaming through.
const maxTableBits = 11

// Run is one stretch of the plan the runtime executes as a single step:
// steps [Step, Step+Gates), executing ops [Op, Op+Gates) of the
// executable stream. It is a diagonal run (the schedulers emit nothing
// between two diagonal gates, so the stretch is contiguous in both) or,
// with Pauli set, a Pauli gadget (gadget.go).
type Run struct {
	Step, Op, Gates int
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
	// Table assigns each term — the gates' AppendDiagTerms output in
	// stream order — to the table that holds all of its mask.
	Table []uint8
}

// Terms appends the run's normal form — its gates' terms in stream
// order, phases read from the gates as bound in ops — to dst: what
// statevec.DiagTables.Prepare takes beside Pinned, Qubits and Table.
func (r *Run) Terms(ops []circuit.Op, dst []gate.DiagTerm) []gate.DiagTerm {
	for i := r.Op; i < r.Op+r.Gates; i++ {
		dst = ops[i].G.AppendDiagTerms(dst)
	}
	return dst
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
// per op). A maximal stretch of mergeable ops is cut greedily: a gate
// whose terms do not fit the two tables closes the run and opens the
// next. Every piece of two or more gates is a run; a piece of one gate
// executes as the gate it is. The walk restarts empty at every piece, so
// the runs of a stream cut at a step boundary are the runs behind the
// cut: an elastic shrink that recompiles the residual circuit executes
// the same passes as the uninterrupted run.
func DiagRuns(c *circuit.Circuit) []Run {
	return diagRuns(c, 0, len(c.Ops), nil)
}

// diagRuns appends the diagonal runs of ops [from, to) to runs.
func diagRuns(c *circuit.Circuit, from, to int, runs []Run) []Run {
	width := tableBits(c.NumQubits)
	var buf [gate.MaxDiagTerms]gate.DiagTerm
	for i := from; i < to; {
		if !mergeable(&c.Ops[i]) {
			i++
			continue
		}
		start, shape := i, runShape{}
		for ; i < to && mergeable(&c.Ops[i]); i++ {
			// A lone gate always fits: two operands, width >= 2.
			if !shape.add(c.Ops[i].G.AppendDiagTerms(buf[:0]), width) {
				break
			}
		}
		if i-start >= 2 {
			runs = append(runs, Run{Step: start, Op: start, Gates: i - start,
				Pinned: shape.pinned, Qubits: shape.qubits, Table: shape.table})
		}
	}
	return runs
}

// markRuns lists what the plan executes as one step each, in stream order
// with Step == Op: the gadgets fusion marked, and the diagonal runs of
// the stretches between them (a gadget's members stay the gates they
// are, so a run never reaches into one).
func markRuns(c *circuit.Circuit, gadgets []fusion.Gadget) []Run {
	var runs []Run
	from := 0
	for i := range gadgets {
		g := &gadgets[i]
		runs = diagRuns(c, from, g.First, runs)
		runs = append(runs, Run{Step: g.First, Op: g.First, Gates: g.Gates(), Pauli: g})
		from = g.Last + 1
	}
	return diagRuns(c, from, len(c.Ops), runs)
}

// countRuns splits runs by kind: the diagonal runs and the gates inside
// them, the gadgets and the gates inside those.
func countRuns(runs []Run) (diag, merged, gadgets, gadgetGates int) {
	for i := range runs {
		if runs[i].Pauli != nil {
			gadgets++
			gadgetGates += runs[i].Gates
		} else {
			diag++
			merged += runs[i].Gates
		}
	}
	return
}
