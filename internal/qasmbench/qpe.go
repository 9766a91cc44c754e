package qasmbench

import (
	"math"

	"svsim/internal/circuit"
)

// QF21: quantum phase estimation to factor 21 (Table 4, 15 qubits). The
// order of 2 modulo 21 is 6 (2^6 = 64 = 3*21 + 1), so period finding must
// resolve the eigenphase s/6. The circuit runs textbook QPE with an
// 11-qubit counting register against a work register prepared in an
// eigenstate whose controlled-U^(2^k) applications kick back the phase
// 2*pi*2^k/6, followed by the inverse QFT on the counting register. The
// measured counting value peaks at round(2^11/6) = 341, from which the
// continued-fraction step of Shor's algorithm recovers the period 6 and
// the factors 3 and 7.

// QF21CountingBits is the counting-register width.
const QF21CountingBits = 11

// QF21Order is the period being estimated (order of 2 mod 21).
const QF21Order = 6

// QF21 builds the 15-qubit phase-estimation circuit.
func QF21(n int) *circuit.Circuit {
	if n != 15 {
		panic("qasmbench: qf21 is defined for 15 qubits")
	}
	const t = QF21CountingBits
	c := circuit.New("qf21", n)
	work := t // first work qubit

	// Eigenstate preparation: |1> on the work register.
	c.X(work)

	// Counting register superposition + controlled powers of U.
	for k := 0; k < t; k++ {
		c.H(k)
	}
	// Counting qubit k controls U^(2^(t-1-k)) so that the inverse QFT in
	// this package's bit order reads the phase estimate out directly.
	for k := 0; k < t; k++ {
		phase := 2 * math.Pi * float64(int(1)<<uint(t-1-k)) / QF21Order
		c.CU1(math.Mod(phase, 2*math.Pi), k, work)
	}

	// Inverse QFT on the counting register.
	appendQFT(c, 0, t, true)
	return c
}
