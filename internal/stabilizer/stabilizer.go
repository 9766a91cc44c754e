// Package stabilizer implements the Aaronson-Gottesman tableau simulator
// for Clifford circuits (H, S, CX and Pauli measurements). It completes
// the simulator taxonomy the paper surveys (§6's "QC simulator zoo"):
// where the state-vector engine pays 2^n memory, the tableau costs O(n^2)
// bits and simulates thousand-qubit Clifford circuits instantly — and on
// small circuits it cross-validates the state-vector kernels exactly.
package stabilizer

import (
	"fmt"
	"math/rand"

	"svsim/internal/circuit"
	"svsim/internal/gate"
)

// Tableau is the stabilizer state of n qubits: rows 0..n-1 are
// destabilizers, rows n..2n-1 stabilizers; each row is a Pauli string
// with X/Z bit vectors and a sign bit.
type Tableau struct {
	N int
	x [][]bool // [2n][n]
	z [][]bool
	r []bool // sign (phase bit) per row
}

// New creates |0...0>: destabilizer i = X_i, stabilizer i = Z_i.
func New(n int) *Tableau {
	if n < 1 {
		panic("stabilizer: need at least one qubit")
	}
	t := &Tableau{
		N: n,
		x: make([][]bool, 2*n),
		z: make([][]bool, 2*n),
		r: make([]bool, 2*n),
	}
	for i := range t.x {
		t.x[i] = make([]bool, n)
		t.z[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		t.x[i][i] = true
		t.z[n+i][i] = true
	}
	return t
}

// Clone deep-copies the tableau.
func (t *Tableau) Clone() *Tableau {
	c := &Tableau{N: t.N, x: make([][]bool, 2*t.N), z: make([][]bool, 2*t.N)}
	c.r = append([]bool(nil), t.r...)
	for i := range t.x {
		c.x[i] = append([]bool(nil), t.x[i]...)
		c.z[i] = append([]bool(nil), t.z[i]...)
	}
	return c
}

// H applies a Hadamard on qubit q.
func (t *Tableau) H(q int) {
	for i := range t.x {
		t.r[i] = t.r[i] != (t.x[i][q] && t.z[i][q])
		t.x[i][q], t.z[i][q] = t.z[i][q], t.x[i][q]
	}
}

// S applies the phase gate on qubit q.
func (t *Tableau) S(q int) {
	for i := range t.x {
		t.r[i] = t.r[i] != (t.x[i][q] && t.z[i][q])
		t.z[i][q] = t.z[i][q] != t.x[i][q]
	}
}

// Sdg applies the adjoint phase gate (S three times).
func (t *Tableau) Sdg(q int) { t.S(q); t.S(q); t.S(q) }

// X applies Pauli-X (H S S H up to phase; implemented directly).
func (t *Tableau) X(q int) {
	for i := range t.x {
		t.r[i] = t.r[i] != t.z[i][q]
	}
}

// Z applies Pauli-Z.
func (t *Tableau) Z(q int) {
	for i := range t.x {
		t.r[i] = t.r[i] != t.x[i][q]
	}
}

// Y applies Pauli-Y (= iXZ; the global phase is not tracked).
func (t *Tableau) Y(q int) { t.Z(q); t.X(q) }

// CX applies a controlled-NOT with control c and target q:
// r ^= x_c & z_t & (x_t XOR z_c XOR 1).
func (t *Tableau) CX(c, q int) {
	for i := range t.x {
		if t.x[i][c] && t.z[i][q] && (t.x[i][q] == t.z[i][c]) {
			t.r[i] = !t.r[i]
		}
		t.x[i][q] = t.x[i][q] != t.x[i][c]
		t.z[i][c] = t.z[i][c] != t.z[i][q]
	}
}

// CZ applies a controlled-Z (H on target conjugating CX).
func (t *Tableau) CZ(c, q int) { t.H(q); t.CX(c, q); t.H(q) }

// Swap exchanges two qubits (three CXs).
func (t *Tableau) Swap(a, b int) { t.CX(a, b); t.CX(b, a); t.CX(a, b) }

// g is the Aaronson-Gottesman phase function for multiplying single-qubit
// Pauli factors: returns the exponent of i (mod 4 contribution) when
// (x1,z1) multiplies (x2,z2).
func g(x1, z1, x2, z2 bool) int {
	switch {
	case !x1 && !z1:
		return 0
	case x1 && z1: // Y
		return b2i(z2) - b2i(x2)
	case x1 && !z1: // X
		return b2i(z2) * (2*b2i(x2) - 1)
	default: // Z
		return b2i(x2) * (1 - 2*b2i(z2))
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// rowsum multiplies row j into row i (row_i := row_j * row_i), tracking
// the sign.
func (t *Tableau) rowsum(i, j int) {
	phase := 2*b2i(t.r[i]) + 2*b2i(t.r[j])
	for q := 0; q < t.N; q++ {
		phase += g(t.x[j][q], t.z[j][q], t.x[i][q], t.z[i][q])
		t.x[i][q] = t.x[i][q] != t.x[j][q]
		t.z[i][q] = t.z[i][q] != t.z[j][q]
	}
	phase = ((phase % 4) + 4) % 4
	// Stabilizer-row products always land on 0 or 2 (commuting rows);
	// destabilizer rows may hit odd phases, but their signs are never
	// read, so any consistent assignment works.
	t.r[i] = phase >= 2
}

// Measure performs a computational-basis measurement of qubit q; random
// outcomes use the supplied source.
func (t *Tableau) Measure(q int, rng *rand.Rand) int {
	n := t.N
	p := -1
	for i := n; i < 2*n; i++ {
		if t.x[i][q] {
			p = i
			break
		}
	}
	if p >= 0 {
		// Random outcome: q anticommutes with stabilizer p.
		for i := 0; i < 2*n; i++ {
			if i != p && t.x[i][q] {
				t.rowsum(i, p)
			}
		}
		// Destabilizer p-n := old stabilizer p; stabilizer p := +/- Z_q.
		copy(t.x[p-n], t.x[p])
		copy(t.z[p-n], t.z[p])
		t.r[p-n] = t.r[p]
		for k := 0; k < n; k++ {
			t.x[p][k] = false
			t.z[p][k] = false
		}
		t.z[p][q] = true
		out := rng.Intn(2)
		t.r[p] = out == 1
		return out
	}
	// Deterministic outcome: accumulate matching destabilizers into a
	// scratch row.
	scratch := &Tableau{N: n, x: [][]bool{make([]bool, n)}, z: [][]bool{make([]bool, n)}, r: []bool{false}}
	for i := 0; i < n; i++ {
		if t.x[i][q] {
			// rowsum(scratch, stabilizer i+n) on the scratch tableau.
			phase := 2*b2i(scratch.r[0]) + 2*b2i(t.r[i+n])
			for k := 0; k < n; k++ {
				phase += g(t.x[i+n][k], t.z[i+n][k], scratch.x[0][k], scratch.z[0][k])
				scratch.x[0][k] = scratch.x[0][k] != t.x[i+n][k]
				scratch.z[0][k] = scratch.z[0][k] != t.z[i+n][k]
			}
			phase = ((phase % 4) + 4) % 4
			scratch.r[0] = phase == 2
		}
	}
	if scratch.r[0] {
		return 1
	}
	return 0
}

// Run executes a Clifford circuit (conditions supported; non-Clifford
// gates are an error) and returns the classical bits.
func Run(c *circuit.Circuit, seed int64) (*Tableau, uint64, error) {
	t := New(c.NumQubits)
	rng := rand.New(rand.NewSource(seed))
	var cbits uint64
	for i := range c.Ops {
		op := &c.Ops[i]
		if op.Cond != nil {
			mask := uint64(1)<<uint(op.Cond.Width) - 1
			if (cbits>>uint(op.Cond.Offset))&mask != op.Cond.Value {
				continue
			}
		}
		gg := &op.G
		switch gg.Kind {
		case gate.H:
			t.H(int(gg.Qubits[0]))
		case gate.S:
			t.S(int(gg.Qubits[0]))
		case gate.SDG:
			t.Sdg(int(gg.Qubits[0]))
		case gate.X:
			t.X(int(gg.Qubits[0]))
		case gate.Y:
			t.Y(int(gg.Qubits[0]))
		case gate.Z:
			t.Z(int(gg.Qubits[0]))
		case gate.CX:
			t.CX(int(gg.Qubits[0]), int(gg.Qubits[1]))
		case gate.CZ:
			t.CZ(int(gg.Qubits[0]), int(gg.Qubits[1]))
		case gate.SWAP:
			t.Swap(int(gg.Qubits[0]), int(gg.Qubits[1]))
		case gate.ID, gate.BARRIER, gate.GPHASE:
			// no-ops on the tableau (global phase untracked)
		case gate.MEASURE:
			out := t.Measure(int(gg.Qubits[0]), rng)
			if out == 1 {
				cbits |= uint64(1) << uint(gg.Cbit)
			} else {
				cbits &^= uint64(1) << uint(gg.Cbit)
			}
		default:
			return nil, 0, fmt.Errorf("stabilizer: %s is not a Clifford operation", gg.Kind)
		}
	}
	return t, cbits, nil
}
