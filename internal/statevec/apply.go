package statevec

import "svsim/internal/gate"

// The state's entry points for gates: Apply and ApplyTile run the
// per-kind kernel of one gate on the whole state or on a tile of it,
// ApplyMatrix the generic matrix path. Programs reach the state through
// core, which compiles a circuit and calls these.

// Apply executes one unitary gate on the whole state (or, for a state
// that is one partition of a larger register, on that partition — see
// State.Base). Non-unitary kinds (MEASURE, RESET) need a draw and belong
// to the runtime, which collapses with ProbOne and Project; BARRIER is a
// scheduling no-op.
func (s *State) Apply(g *gate.Gate) {
	if g.Kind == gate.BARRIER {
		return
	}
	s.Stats.add(s.window(0, s.Dim).apply(g))
}

// ApplyTile applies one unitary gate to the aligned amplitude tile
// [lo, hi) — the same kernel as Apply on a smaller window, so a run of
// gates can replay over a cache-resident tile before the executor moves
// to the next one — and returns the amplitudes and flops visited. Every
// pairing target must lie below the tile size exponent
// (compile.BuildTilePlan guarantees it). Stats are the caller's: it may
// run tiles from worker goroutines, and a tiled group's memory traffic
// is charged once per group (AddTileWork + AddSweep), not once per gate.
func (s *State) ApplyTile(g *gate.Gate, lo, hi int) (amps, flops int64) {
	return s.window(lo, hi).apply(g)
}

// ApplyMatrix applies an arbitrary k-qubit matrix — a unitary, or a
// Kraus operator, which need not be one — to the given operand qubits
// (operand j = local bit j).
func (s *State) ApplyMatrix(u gate.Matrix, qubits []int) {
	var buf [8]int32
	targets := buf[:0]
	for _, q := range qubits {
		targets = append(targets, int32(q))
	}
	s.Stats.add(s.window(0, s.Dim).matrix(u, targets))
}
