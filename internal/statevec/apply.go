package statevec

import "svsim/internal/gate"

// Apply executes one unitary gate on the whole state (or, for a state
// that is one partition of a larger register, on that partition — see
// State.Base). Non-unitary kinds (MEASURE, RESET) are handled by the
// runtime via MeasureQubit/ResetQubit because they need a randomness
// source; BARRIER is a scheduling no-op.
func (s *State) Apply(g *gate.Gate) {
	if g.Kind == gate.BARRIER {
		return
	}
	s.Stats.add(s.window(0, s.Dim).apply(g))
}

// ApplyAll executes a gate sequence in order.
func (s *State) ApplyAll(gs []gate.Gate) {
	for i := range gs {
		s.Apply(&gs[i])
	}
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

// apply1 applies a 1-qubit kind; the named entries below are conveniences
// for callers that drive the state directly (QIR, Hamiltonian basis
// changes, tests).
func (s *State) apply1(k gate.Kind, q int, params ...float64) {
	g := gate.Gate{Kind: k, NQ: 1, Qubits: [gate.MaxOperands]int32{int32(q)}}
	copy(g.Params[:], params)
	s.Apply(&g)
}

// ApplyX applies Pauli-X on qubit q.
func (s *State) ApplyX(q int) { s.apply1(gate.X, q) }

// ApplyY applies Pauli-Y on qubit q.
func (s *State) ApplyY(q int) { s.apply1(gate.Y, q) }

// ApplyZ applies Pauli-Z on qubit q.
func (s *State) ApplyZ(q int) { s.apply1(gate.Z, q) }

// ApplyH applies the Hadamard on qubit q.
func (s *State) ApplyH(q int) { s.apply1(gate.H, q) }

// ApplyS applies S on qubit q.
func (s *State) ApplyS(q int) { s.apply1(gate.S, q) }

// ApplySDG applies S-dagger on qubit q.
func (s *State) ApplySDG(q int) { s.apply1(gate.SDG, q) }

// ApplyT applies T on qubit q.
func (s *State) ApplyT(q int) { s.apply1(gate.T, q) }

// ApplyTDG applies T-dagger on qubit q.
func (s *State) ApplyTDG(q int) { s.apply1(gate.TDG, q) }

// ApplyRX applies exp(-i theta X / 2) on qubit q.
func (s *State) ApplyRX(theta float64, q int) { s.apply1(gate.RX, q, theta) }

// ApplyRY applies exp(-i theta Y / 2) on qubit q.
func (s *State) ApplyRY(theta float64, q int) { s.apply1(gate.RY, q, theta) }

// ApplyRZ applies exp(-i theta Z / 2) on qubit q.
func (s *State) ApplyRZ(theta float64, q int) { s.apply1(gate.RZ, q, theta) }

// ApplyGPhase multiplies the whole register by e^{i theta}.
func (s *State) ApplyGPhase(theta float64) {
	g := gate.NewGPhase(theta)
	s.Apply(&g)
}

// ApplyCX applies controlled-NOT with control c and target t.
func (s *State) ApplyCX(c, t int) { s.ApplyMCX([]int{c}, t) }

// mask returns the bitmask with a 1 at every listed qubit.
func mask(qubits []int) int {
	var m int
	for _, q := range qubits {
		m |= 1 << uint(q)
	}
	return m
}

// ApplyMCX applies an X on target t controlled on every qubit in ctrls
// (the QIR multi-controlled X).
func (s *State) ApplyMCX(ctrls []int, t int) {
	s.Stats.add(s.window(0, s.Dim).iter(mask(ctrls), 1<<uint(t)).x(1 << uint(t)))
}

// ApplyMC1Q applies an arbitrary 1-qubit unitary u (2x2) on target t,
// controlled on every qubit in ctrls. An empty ctrls applies u directly.
func (s *State) ApplyMC1Q(u gate.Matrix, ctrls []int, t int) {
	if u.N != 2 {
		panic("statevec: ApplyMC1Q needs a 2x2 matrix")
	}
	var c [8]float64
	for i, v := range u.Data {
		c[2*i], c[2*i+1] = real(v), imag(v)
	}
	s.Stats.add(s.window(0, s.Dim).iter(mask(ctrls), 1<<uint(t)).u2(1<<uint(t), c))
}

// ApplyMatrix applies an arbitrary k-qubit unitary to the given operand
// qubits (operand j = local bit j).
func (s *State) ApplyMatrix(u gate.Matrix, qubits []int) {
	var buf [8]int32
	targets := buf[:0]
	for _, q := range qubits {
		targets = append(targets, int32(q))
	}
	s.Stats.add(s.window(0, s.Dim).matrix(u, targets))
}
