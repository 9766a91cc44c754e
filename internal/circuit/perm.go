package circuit

import (
	"fmt"

	"svsim/internal/gate"
)

// Permutation maps logical qubits to physical bit positions. The
// communication-avoiding scheduler (internal/sched) and the remapping
// backends use it to track where each logical qubit currently lives after
// lazy qubit reordering: element q is the physical bit position holding
// logical qubit q. A distributed state vector laid out under a
// permutation stores the amplitude of logical basis state x at physical
// index PhysicalIndex(x).
type Permutation []int

// IdentityPermutation returns the identity mapping over n qubits.
func IdentityPermutation(n int) Permutation {
	p := make(Permutation, n)
	for q := range p {
		p[q] = q
	}
	return p
}

// Clone returns an independent copy (each SPMD rank replays its own).
func (p Permutation) Clone() Permutation {
	return append(Permutation(nil), p...)
}

// IsIdentity reports whether every qubit sits at its own position.
func (p Permutation) IsIdentity() bool {
	for q, pos := range p {
		if q != pos {
			return false
		}
	}
	return true
}

// PhysicalIndex maps a logical basis-state index to its physical index:
// bit p[q] of the result is bit q of x.
func (p Permutation) PhysicalIndex(x int) int {
	phys := 0
	for q, pos := range p {
		if x>>uint(q)&1 == 1 {
			phys |= 1 << uint(pos)
		}
	}
	return phys
}

// LogicalAt returns the logical qubit currently at physical position pos,
// or -1 if no qubit maps there.
func (p Permutation) LogicalAt(pos int) int {
	for q, at := range p {
		if at == pos {
			return q
		}
	}
	return -1
}

// PhysicalGate returns g with every operand qubit replaced by the
// physical bit position it currently occupies: the gate as the remapping
// executors apply it to their partitions.
func (p Permutation) PhysicalGate(g *gate.Gate) gate.Gate {
	pg := *g
	for i := range pg.Qubits[:pg.NQ] {
		pg.Qubits[i] = int32(p[pg.Qubits[i]])
	}
	return pg
}

// SwapLogical exchanges the physical positions of logical qubits a and b
// (a virtual swap: relabeling with no data movement).
func (p Permutation) SwapLogical(a, b int) {
	p[a], p[b] = p[b], p[a]
}

// SwapPhysical exchanges the logical occupants of physical positions x
// and y (the bookkeeping side of a physical bit exchange). It panics if
// either position is unoccupied.
func (p Permutation) SwapPhysical(x, y int) {
	a, b := p.LogicalAt(x), p.LogicalAt(y)
	if a < 0 || b < 0 {
		panic(fmt.Sprintf("circuit: SwapPhysical(%d,%d) on permutation %v: position unoccupied", x, y, p))
	}
	p[a], p[b] = p[b], p[a]
}

// Validate checks that p is a bijection over [0, len(p)).
func (p Permutation) Validate() error {
	seen := make([]bool, len(p))
	for q, pos := range p {
		if pos < 0 || pos >= len(p) {
			return fmt.Errorf("circuit: permutation maps qubit %d to out-of-range position %d", q, pos)
		}
		if seen[pos] {
			return fmt.Errorf("circuit: permutation maps two qubits to position %d", pos)
		}
		seen[pos] = true
	}
	return nil
}
