package gate

import "math/cmplx"

// Matrix helpers only the package's tests use: unitarity and
// global-phase checks, and the u3 matrix.

// Dagger returns the conjugate transpose.
func (m Matrix) Dagger() Matrix {
	r := NewMatrix(m.N)
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			r.Set(j, i, cmplx.Conj(m.At(i, j)))
		}
	}
	return r
}

// IsUnitary reports whether m is unitary within the given absolute tolerance.
func (m Matrix) IsUnitary(tol float64) bool {
	p := m.Dagger().Mul(m)
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			want := complex128(0)
			if i == j {
				want = 1
			}
			if cmplx.Abs(p.At(i, j)-want) > tol {
				return false
			}
		}
	}
	return true
}

// EqualUpToGlobalPhase reports whether m == e^{i phi} o for some phase phi,
// within tol. Gate identities in qelib1 often hold only up to global phase
// (e.g. rz vs u1), so equivalence tests need this weaker comparison.
func (m Matrix) EqualUpToGlobalPhase(o Matrix, tol float64) bool {
	if m.N != o.N {
		return false
	}
	// Find the largest-magnitude element of o to fix the phase.
	best, bestAbs := -1, 0.0
	for i := range o.Data {
		if a := cmplx.Abs(o.Data[i]); a > bestAbs {
			bestAbs, best = a, i
		}
	}
	if best < 0 || bestAbs < tol {
		return m.EqualUpTo(o, tol)
	}
	if cmplx.Abs(m.Data[best]) < tol {
		return false
	}
	phase := m.Data[best] / o.Data[best]
	phase /= complex(cmplx.Abs(phase), 0)
	return m.EqualUpTo(o.Scale(phase), tol)
}

// U3Matrix returns the generic 1-qubit unitary
//
//	[[cos(t/2),           -e^{i l} sin(t/2)],
//	 [e^{i p} sin(t/2),  e^{i(p+l)} cos(t/2)]]
//
// in the OpenQASM convention.
func U3Matrix(theta, phi, lambda float64) Matrix {
	return base1Matrix(U3, []float64{theta, phi, lambda})
}
