package gate

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Matrix is a dense row-major complex matrix of size N x N. It is used for
// reference unitaries, the generic-matrix baseline simulator (the Aer-style
// path the paper contrasts with its specialized kernels), and tests.
type Matrix struct {
	N    int
	Data []complex128
}

// NewMatrix allocates an N x N zero matrix.
func NewMatrix(n int) Matrix {
	return Matrix{N: n, Data: make([]complex128, n*n)}
}

// Identity returns the N x N identity matrix.
func Identity(n int) Matrix {
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (row, col).
func (m Matrix) At(r, c int) complex128 { return m.Data[r*m.N+c] }

// Set assigns element (row, col).
func (m Matrix) Set(r, c int, v complex128) { m.Data[r*m.N+c] = v }

// Mul returns the matrix product m * o.
func (m Matrix) Mul(o Matrix) Matrix {
	if m.N != o.N {
		panic(fmt.Sprintf("matrix mul: size mismatch %d vs %d", m.N, o.N))
	}
	r := NewMatrix(m.N)
	for i := 0; i < m.N; i++ {
		for k := 0; k < m.N; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < m.N; j++ {
				r.Data[i*m.N+j] += a * o.At(k, j)
			}
		}
	}
	return r
}

// Scale returns s * m.
func (m Matrix) Scale(s complex128) Matrix {
	r := NewMatrix(m.N)
	for i := range m.Data {
		r.Data[i] = s * m.Data[i]
	}
	return r
}

// EqualUpTo reports element-wise equality within tol.
func (m Matrix) EqualUpTo(o Matrix, tol float64) bool {
	if m.N != o.N {
		return false
	}
	for i := range m.Data {
		if cmplx.Abs(m.Data[i]-o.Data[i]) > tol {
			return false
		}
	}
	return true
}

// Embed lifts a matrix acting on len(pos) local qubits into an nq-qubit
// matrix, where pos[j] gives the register position of local qubit j (local
// qubit 0 = least-significant local index bit).
func (m Matrix) Embed(nq int, pos []int) Matrix {
	k := len(pos)
	if m.N != 1<<uint(k) {
		panic("embed: operand count does not match matrix size")
	}
	dim := 1 << uint(nq)
	var opMask uint64
	for _, p := range pos {
		opMask |= 1 << uint(p)
	}
	r := NewMatrix(dim)
	for i := 0; i < dim; i++ {
		rest := uint64(i) &^ opMask
		a := 0
		for j, p := range pos {
			if i>>uint(p)&1 == 1 {
				a |= 1 << uint(j)
			}
		}
		for b := 0; b < m.N; b++ {
			v := m.At(a, b)
			if v == 0 {
				continue
			}
			col := rest
			for j, p := range pos {
				if b>>uint(j)&1 == 1 {
					col |= 1 << uint(p)
				}
			}
			r.Set(i, int(col), v)
		}
	}
	return r
}

// Apply multiplies m into the state vector given as separate real and
// imaginary slices (dense reference implementation used by tests and the
// baseline simulators).
func (m Matrix) Apply(re, im []float64) {
	if len(re) != m.N || len(im) != m.N {
		panic("matrix apply: dimension mismatch")
	}
	outR := make([]float64, m.N)
	outI := make([]float64, m.N)
	for i := 0; i < m.N; i++ {
		var sr, si float64
		row := m.Data[i*m.N : (i+1)*m.N]
		for j, v := range row {
			if v == 0 {
				continue
			}
			vr, vi := real(v), imag(v)
			sr += vr*re[j] - vi*im[j]
			si += vr*im[j] + vi*re[j]
		}
		outR[i], outI[i] = sr, si
	}
	copy(re, outR)
	copy(im, outI)
}

const s2i = math.Sqrt2 / 2 // 1/sqrt(2), the paper's S2I constant

// base1Matrix returns the 2x2 unitary of a 1-qubit kind.
func base1Matrix(k Kind, p []float64) Matrix {
	var m [4]complex128
	base1Into(k, p, &m)
	return Matrix{N: 2, Data: m[:]}
}

// base1Into writes the row-major 2x2 unitary of a 1-qubit kind into m:
// the one place each kind's arithmetic lives, so a matrix computed into
// a caller's buffer is bit-identical to an allocated one.
func base1Into(k Kind, p []float64, m *[4]complex128) {
	switch k {
	case U3, U2:
		theta, phi, lambda := math.Pi/2, p[0], p[1]
		if k == U3 {
			theta, phi, lambda = p[0], p[1], p[2]
		}
		c := complex(math.Cos(theta/2), 0)
		s := complex(math.Sin(theta/2), 0)
		*m = [4]complex128{
			c, -cmplx.Exp(complex(0, lambda)) * s,
			cmplx.Exp(complex(0, phi)) * s, cmplx.Exp(complex(0, phi+lambda)) * c,
		}
	case U1:
		*m = [4]complex128{1, 0, 0, cmplx.Exp(complex(0, p[0]))}
	case ID:
		*m = [4]complex128{1, 0, 0, 1}
	case X:
		*m = [4]complex128{0, 1, 1, 0}
	case Y:
		*m = [4]complex128{0, -1i, 1i, 0}
	case Z:
		*m = [4]complex128{1, 0, 0, -1}
	case H:
		*m = [4]complex128{complex(s2i, 0), complex(s2i, 0), complex(s2i, 0), complex(-s2i, 0)}
	case S:
		*m = [4]complex128{1, 0, 0, 1i}
	case SDG:
		*m = [4]complex128{1, 0, 0, -1i}
	case T:
		*m = [4]complex128{1, 0, 0, complex(s2i, s2i)}
	case TDG:
		*m = [4]complex128{1, 0, 0, complex(s2i, -s2i)}
	case RX:
		c := complex(math.Cos(p[0]/2), 0)
		s := complex(0, -math.Sin(p[0]/2))
		*m = [4]complex128{c, s, s, c}
	case RY:
		c := complex(math.Cos(p[0]/2), 0)
		s := complex(math.Sin(p[0]/2), 0)
		*m = [4]complex128{c, -s, s, c}
	case RZ:
		*m = [4]complex128{cmplx.Exp(complex(0, -p[0]/2)), 0, 0, cmplx.Exp(complex(0, p[0]/2))}
	case SX:
		*m = [4]complex128{complex(0.5, 0.5), complex(0.5, -0.5), complex(0.5, -0.5), complex(0.5, 0.5)}
	case SXDG:
		*m = [4]complex128{complex(0.5, -0.5), complex(0.5, 0.5), complex(0.5, 0.5), complex(0.5, -0.5)}
	default:
		panic(fmt.Sprintf("base1Matrix: kind %s is not a 1-qubit unitary", k))
	}
}

// swapMatrix is the 2-qubit SWAP in the local-bit convention.
func swapMatrix() Matrix {
	m := NewMatrix(4)
	m.Set(0, 0, 1)
	m.Set(1, 2, 1)
	m.Set(2, 1, 1)
	m.Set(3, 3, 1)
	return m
}

func rxxMatrix(theta float64) Matrix {
	m := NewMatrix(4)
	rxxInto(theta, m.Data)
	return m
}

func rxxInto(theta float64, m []complex128) {
	c := complex(math.Cos(theta/2), 0)
	s := complex(0, -math.Sin(theta/2))
	copy(m[:16], []complex128{
		c, 0, 0, s,
		0, c, s, 0,
		0, s, c, 0,
		s, 0, 0, c,
	})
}

// rzzMatrix follows the qelib1 definition (cx; u1(theta); cx), i.e.
// diag(1, e^{i t}, e^{i t}, 1), which equals exp(-i t ZZ / 2) up to a global
// phase.
func rzzMatrix(theta float64) Matrix {
	m := NewMatrix(4)
	rzzInto(theta, m.Data)
	return m
}

func rzzInto(theta float64, m []complex128) {
	e := cmplx.Exp(complex(0, theta))
	copy(m[:16], []complex128{
		1, 0, 0, 0,
		0, e, 0, 0,
		0, 0, e, 0,
		0, 0, 0, 1,
	})
}

// controlled embeds base acting on the last operands behind nc controls.
// Operand order (controls first, then targets) matches Gate.Qubits; local
// bit j corresponds to operand j, so controls occupy the low local bits.
func controlled(nc int, base Matrix) Matrix {
	nt := 0
	for 1<<uint(nt) < base.N {
		nt++
	}
	nq := nc + nt
	dim := 1 << uint(nq)
	ctrlMask := 1<<uint(nc) - 1
	m := Identity(dim)
	for i := 0; i < dim; i++ {
		if i&ctrlMask != ctrlMask {
			continue
		}
		a := i >> uint(nc)
		for b := 0; b < base.N; b++ {
			col := i&ctrlMask | b<<uint(nc)
			m.Set(i, col, base.At(a, b))
		}
	}
	return m
}

// rccxSeq and rc3xSeq are the qelib1 bodies of the relative-phase Toffoli
// gates; their unitaries are defined as the product of these sequences.
type seqOp struct {
	kind Kind
	par  []float64
	ops  []int // local operand indices
}

var rccxSeq = []seqOp{
	{U2, []float64{0, math.Pi}, []int{2}},
	{U1, []float64{math.Pi / 4}, []int{2}},
	{CX, nil, []int{1, 2}},
	{U1, []float64{-math.Pi / 4}, []int{2}},
	{CX, nil, []int{0, 2}},
	{U1, []float64{math.Pi / 4}, []int{2}},
	{CX, nil, []int{1, 2}},
	{U1, []float64{-math.Pi / 4}, []int{2}},
	{U2, []float64{0, math.Pi}, []int{2}},
}

var rc3xSeq = []seqOp{
	{U2, []float64{0, math.Pi}, []int{3}},
	{U1, []float64{math.Pi / 4}, []int{3}},
	{CX, nil, []int{2, 3}},
	{U1, []float64{-math.Pi / 4}, []int{3}},
	{U2, []float64{0, math.Pi}, []int{3}},
	{CX, nil, []int{0, 3}},
	{U1, []float64{math.Pi / 4}, []int{3}},
	{CX, nil, []int{1, 3}},
	{U1, []float64{-math.Pi / 4}, []int{3}},
	{CX, nil, []int{0, 3}},
	{U1, []float64{math.Pi / 4}, []int{3}},
	{CX, nil, []int{1, 3}},
	{U1, []float64{-math.Pi / 4}, []int{3}},
	{U2, []float64{0, math.Pi}, []int{3}},
	{U1, []float64{math.Pi / 4}, []int{3}},
	{CX, nil, []int{2, 3}},
	{U1, []float64{-math.Pi / 4}, []int{3}},
	{U2, []float64{0, math.Pi}, []int{3}},
}

func seqMatrix(nq int, seq []seqOp) Matrix {
	m := Identity(1 << uint(nq))
	for _, op := range seq {
		var sub Matrix
		switch op.kind {
		case CX:
			sub = controlled(1, base1Matrix(X, nil))
		default:
			sub = base1Matrix(op.kind, op.par)
		}
		m = sub.Embed(nq, op.ops).Mul(m)
	}
	return m
}

// Unitary returns the gate's unitary matrix on its own operands, in the
// local-bit convention (operand j = bit j of the matrix index). It panics
// for non-unitary kinds (MEASURE, RESET, BARRIER).
func Unitary(g Gate) Matrix {
	p := g.Params[:]
	switch g.Kind {
	case U3, U2, U1, ID, X, Y, Z, H, S, SDG, T, TDG, RX, RY, RZ, SX, SXDG:
		return base1Matrix(g.Kind, p)
	case SWAP:
		return swapMatrix()
	case RXX:
		return rxxMatrix(p[0])
	case RZZ:
		return rzzMatrix(p[0])
	case RCCX:
		return seqMatrix(3, rccxSeq)
	case RC3X:
		return seqMatrix(4, rc3xSeq)
	case GPHASE:
		m := Identity(1)
		m.Set(0, 0, cmplx.Exp(complex(0, p[0])))
		return m
	case CX, CY, CZ, CH, CRX, CRY, CRZ, CU1, CU3, CS, CT, CSDG, CTDG, CCX, C3X, C3SQRTX, C4X:
		return controlled(g.Kind.NumControls(), base1Matrix(g.Kind.BaseKind(), p))
	case CSWAP:
		return controlled(1, swapMatrix())
	}
	panic(fmt.Sprintf("Unitary: kind %s has no unitary", g.Kind))
}

// TargetUnitaryInto writes Classify(g).U — the gate's action on its
// target operands once every control fires — into dst and returns its
// dimension N (dst must hold N*N elements, 16 at most for a kind with
// parameters). It shares the arithmetic of Unitary, so the result is
// bit-identical to Classify's, but it allocates nothing for the kinds
// whose matrix depends on a parameter: re-binding a compiled plan costs
// one slab, not one matrix per gate.
func TargetUnitaryInto(g *Gate, dst []complex128) int {
	switch k := g.Kind.BaseKind(); k {
	case U3, U2, U1, ID, X, Y, Z, H, S, SDG, T, TDG, RX, RY, RZ, SX, SXDG:
		base1Into(k, g.Params[:], (*[4]complex128)(dst))
		return 2
	case RXX:
		rxxInto(g.Params[0], dst)
		return 4
	case RZZ:
		rzzInto(g.Params[0], dst)
		return 4
	}
	u := Classify(g).U // parameter-free multi-target kinds
	copy(dst[:u.N*u.N], u.Data)
	return u.N
}
