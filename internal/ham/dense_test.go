package ham

import (
	"math"

	"svsim/internal/circuit"
)

// Dense materializes the Hamiltonian as a dense 2^N x 2^N matrix, the
// oracle Expectation is held to (exponential memory: small N only).
func (h *Hamiltonian) Dense() [][]complex128 {
	dim := 1 << uint(h.N)
	m := make([][]complex128, dim)
	for i := range m {
		m[i] = make([]complex128, dim)
	}
	for _, t := range h.Terms {
		addPauliTerm(m, t, h.N)
	}
	return m
}

func addPauliTerm(m [][]complex128, t Term, n int) {
	dim := 1 << uint(n)
	opOf := make(map[int]circuit.Pauli, len(t.Paulis))
	for _, p := range t.Paulis {
		opOf[p.Q] = p.P
	}
	for col := 0; col < dim; col++ {
		row := col
		coeff := complex(t.Coeff, 0)
		for q := 0; q < n; q++ {
			bit := col >> uint(q) & 1
			switch opOf[q] {
			case circuit.PauliX:
				row ^= 1 << uint(q)
			case circuit.PauliY:
				row ^= 1 << uint(q)
				if bit == 0 {
					coeff *= 1i // Y|0> = i|1>
				} else {
					coeff *= -1i // Y|1> = -i|0>
				}
			case circuit.PauliZ:
				if bit == 1 {
					coeff = -coeff
				}
			}
		}
		m[row][col] += coeff
	}
}

// GroundEnergy computes the smallest eigenvalue of the Hamiltonian by
// shifted power iteration on its dense form (small N only).
func (h *Hamiltonian) GroundEnergy() float64 {
	m := h.Dense()
	dim := len(m)
	// Gershgorin upper bound to shift the spectrum: sigma*I - H is PSD
	// with the ground state as its dominant eigenvector.
	var sigma float64
	for i := 0; i < dim; i++ {
		row := 0.0
		for j := 0; j < dim; j++ {
			a := m[i][j]
			row += math.Hypot(real(a), imag(a))
		}
		if row > sigma {
			sigma = row
		}
	}
	v := make([]complex128, dim)
	for i := range v {
		// Deterministic non-degenerate start vector.
		v[i] = complex(1/math.Sqrt(float64(dim)), float64(i%7)*1e-3)
	}
	normalize(v)
	w := make([]complex128, dim)
	for iter := 0; iter < 3000; iter++ {
		for i := 0; i < dim; i++ {
			acc := complex(sigma, 0) * v[i]
			for j := 0; j < dim; j++ {
				acc -= m[i][j] * v[j]
			}
			w[i] = acc
		}
		copy(v, w)
		normalize(v)
	}
	// Rayleigh quotient of H.
	var e complex128
	for i := 0; i < dim; i++ {
		var hv complex128
		for j := 0; j < dim; j++ {
			hv += m[i][j] * v[j]
		}
		e += complexConj(v[i]) * hv
	}
	return real(e)
}

func normalize(v []complex128) {
	var n float64
	for _, x := range v {
		n += real(x)*real(x) + imag(x)*imag(x)
	}
	n = math.Sqrt(n)
	for i := range v {
		v[i] /= complex(n, 0)
	}
}

func complexConj(x complex128) complex128 { return complex(real(x), -imag(x)) }
