// Package gate defines the SV-Sim gate instruction set: the complete
// OpenQASM 2.0 gate set of the paper's Table 1 plus the auxiliary kinds
// (global phase, sqrt-X, measurement, reset, barrier) needed by the QIR
// frontend of Table 2 and by the simulator backends.
//
// A Gate is a small value type (no heap indirection) carrying a Kind, the
// operand qubits, and up to three real parameters. The convention for
// operand order follows OpenQASM: controls first, then targets. The
// convention for matrix indexing is that bit j of a basis index corresponds
// to operand Qubits[j], i.e. Qubits[0] is the least-significant bit of the
// gate-local basis index.
package gate

import "fmt"

// Kind enumerates every gate implemented by the simulator. The first block
// mirrors Table 1 of the paper (IBM OpenQASM standard); the second block
// holds auxiliary kinds used by the QIR frontend and the runtime.
type Kind uint8

const (
	// Basic gates natively executed by IBM-Q machines (Table 1, first column).
	U3 Kind = iota // 3 parameter 2 pulse 1-qubit
	U2             // 2 parameter 1 pulse 1-qubit
	U1             // 1 parameter 0 pulse 1-qubit (phase gate)
	CX             // controlled-NOT
	ID             // idle gate / identity

	// Standard gates defined atomically (Table 1).
	X   // Pauli-X bit flip
	Y   // Pauli-Y bit and phase flip
	Z   // Pauli-Z phase flip
	H   // Hadamard
	S   // sqrt(Z) phase
	SDG // conjugate of sqrt(Z)
	T   // sqrt(S) phase
	TDG // conjugate of sqrt(S)
	RX  // X-axis rotation exp(-i theta X / 2)
	RY  // Y-axis rotation exp(-i theta Y / 2)
	RZ  // Z-axis rotation exp(-i theta Z / 2)

	// Compound gates (Table 1) realized internally either by specialized
	// kernels or by composing basic and standard gates.
	CZ      // controlled phase
	CY      // controlled Y
	SWAP    // swap
	CH      // controlled H
	CCX     // Toffoli
	CSWAP   // Fredkin
	CRX     // controlled RX rotation
	CRY     // controlled RY rotation
	CRZ     // controlled RZ rotation
	CU1     // controlled phase rotation
	CU3     // controlled U3
	RXX     // 2-qubit XX rotation exp(-i theta XX / 2)
	RZZ     // 2-qubit ZZ rotation diag(1, e^{i t}, e^{i t}, 1) (qelib1 form)
	RCCX    // relative-phase Toffoli (simplified Toffoli / Margolus family)
	RC3X    // relative-phase 3-controlled X
	C3X     // 3-controlled X
	C3SQRTX // 3-controlled sqrt(X)
	C4X     // 4-controlled X

	// Auxiliary unitary kinds (QIR frontend, decompositions).
	SX     // sqrt(X)
	SXDG   // conjugate of sqrt(X)
	CS     // controlled S (QIR ControlledS)
	CT     // controlled T (QIR ControlledT)
	CSDG   // controlled SDG (QIR ControlledAdjointS)
	CTDG   // controlled TDG (QIR ControlledAdjointT)
	GPHASE // global phase e^{i theta} on the whole register (0 qubits)

	// Non-unitary runtime operations.
	MEASURE // projective measurement of one qubit into a classical bit
	RESET   // reset one qubit to |0>
	BARRIER // scheduling barrier (no-op for simulation semantics)

	numKinds
)

// NumKinds is the count of defined gate kinds; backends size their dispatch
// tables with it, mirroring the fixed-size device-function-pointer table the
// paper preloads at environment initialization.
const NumKinds = int(numKinds)

type kindInfo struct {
	name      string
	nq        int  // number of qubit operands
	np        int  // number of angle parameters
	controls  int  // leading operands that act as controls
	base      Kind // kind applied to the remaining operands when controls fire
	hermitian bool // self-adjoint (adjoint == same gate)
	diag      bool // diagonal for every parameter value (element-wise kernel)
}

var kindTable = [numKinds]kindInfo{
	U3:      {name: "u3", nq: 1, np: 3},
	U2:      {name: "u2", nq: 1, np: 2},
	U1:      {name: "u1", nq: 1, np: 1, diag: true},
	CX:      {name: "cx", nq: 2, controls: 1, base: X, hermitian: true},
	ID:      {name: "id", nq: 1, hermitian: true, diag: true},
	X:       {name: "x", nq: 1, hermitian: true},
	Y:       {name: "y", nq: 1, hermitian: true},
	Z:       {name: "z", nq: 1, hermitian: true, diag: true},
	H:       {name: "h", nq: 1, hermitian: true},
	S:       {name: "s", nq: 1, diag: true},
	SDG:     {name: "sdg", nq: 1, diag: true},
	T:       {name: "t", nq: 1, diag: true},
	TDG:     {name: "tdg", nq: 1, diag: true},
	RX:      {name: "rx", nq: 1, np: 1},
	RY:      {name: "ry", nq: 1, np: 1},
	RZ:      {name: "rz", nq: 1, np: 1, diag: true},
	CZ:      {name: "cz", nq: 2, controls: 1, base: Z, hermitian: true, diag: true},
	CY:      {name: "cy", nq: 2, controls: 1, base: Y, hermitian: true},
	SWAP:    {name: "swap", nq: 2, hermitian: true},
	CH:      {name: "ch", nq: 2, controls: 1, base: H, hermitian: true},
	CCX:     {name: "ccx", nq: 3, controls: 2, base: X, hermitian: true},
	CSWAP:   {name: "cswap", nq: 3, controls: 1, base: SWAP, hermitian: true},
	CRX:     {name: "crx", nq: 2, np: 1, controls: 1, base: RX},
	CRY:     {name: "cry", nq: 2, np: 1, controls: 1, base: RY},
	CRZ:     {name: "crz", nq: 2, np: 1, controls: 1, base: RZ, diag: true},
	CU1:     {name: "cu1", nq: 2, np: 1, controls: 1, base: U1, diag: true},
	CU3:     {name: "cu3", nq: 2, np: 3, controls: 1, base: U3},
	RXX:     {name: "rxx", nq: 2, np: 1},
	RZZ:     {name: "rzz", nq: 2, np: 1, diag: true},
	RCCX:    {name: "rccx", nq: 3},
	RC3X:    {name: "rc3x", nq: 4},
	C3X:     {name: "c3x", nq: 4, controls: 3, base: X, hermitian: true},
	C3SQRTX: {name: "c3sqrtx", nq: 4, controls: 3, base: SX},
	C4X:     {name: "c4x", nq: 5, controls: 4, base: X, hermitian: true},
	SX:      {name: "sx", nq: 1},
	SXDG:    {name: "sxdg", nq: 1},
	CS:      {name: "cs", nq: 2, controls: 1, base: S, diag: true},
	CT:      {name: "ct", nq: 2, controls: 1, base: T, diag: true},
	CSDG:    {name: "csdg", nq: 2, controls: 1, base: SDG, diag: true},
	CTDG:    {name: "ctdg", nq: 2, controls: 1, base: TDG, diag: true},
	GPHASE:  {name: "gphase", nq: 0, np: 1, diag: true},
	MEASURE: {name: "measure", nq: 1},
	RESET:   {name: "reset", nq: 1},
	BARRIER: {name: "barrier", nq: 0, diag: true},
}

// String returns the lower-case OpenQASM-style mnemonic of the kind.
func (k Kind) String() string {
	if int(k) >= NumKinds {
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
	return kindTable[k].name
}

// NumQubits reports how many qubit operands the kind takes. BARRIER reports
// 0 because it accepts a variable operand list that is semantically ignored.
func (k Kind) NumQubits() int { return kindTable[k].nq }

// NumParams reports how many angle parameters the kind takes.
func (k Kind) NumParams() int { return kindTable[k].np }

// NumControls reports how many leading operands act as control qubits for
// controlled kinds (0 for plain gates).
func (k Kind) NumControls() int { return kindTable[k].controls }

// BaseKind returns, for controlled kinds, the kind applied to the target
// operands when all controls are set; for plain kinds it returns the kind
// itself.
func (k Kind) BaseKind() Kind {
	if kindTable[k].controls == 0 {
		return k
	}
	return kindTable[k].base
}

// Hermitian reports whether the gate is self-adjoint for all parameter
// values (so its adjoint is itself).
func (k Kind) Hermitian() bool { return kindTable[k].hermitian }

// Diagonal reports whether the kind's unitary is diagonal for every
// parameter value: its kernel multiplies each amplitude by a phase read
// off the basis index and never couples two amplitudes, so its operands
// may sit anywhere relative to a tile or partition boundary. This is a
// static per-kind property on purpose — a u3 that happens to be diagonal
// for one binding does not count, or plans would change shape under
// re-binding.
func (k Kind) Diagonal() bool { return kindTable[k].diag }

// Unitary reports whether the kind denotes a unitary operation (as opposed
// to measurement, reset, or a barrier).
func (k Kind) Unitary() bool { return k < MEASURE }

// KindByName looks up a kind by its OpenQASM mnemonic. It also accepts the
// common aliases "p" (phase, u1), "u" (u3), and "toffoli"/"fredkin".
func KindByName(name string) (Kind, bool) {
	k, ok := kindByName[name]
	return k, ok
}

// kindByName maps every mnemonic and alias KindByName accepts to its kind.
var kindByName = func() map[string]Kind {
	m := map[string]Kind{
		"p":       U1,
		"phase":   U1,
		"u":       U3,
		"U":       U3,
		"cnot":    CX,
		"CX":      CX,
		"toffoli": CCX,
		"fredkin": CSWAP,
		"cp":      CU1,
		"cphase":  CU1,
	}
	for k := Kind(0); k < numKinds; k++ {
		m[kindTable[k].name] = k
	}
	return m
}()
