package qasmbench

import (
	"math"

	"svsim/internal/circuit"
	"svsim/internal/decomp"
	"svsim/internal/gate"
)

// Extended workload suite: canonical algorithms beyond the paper's Table 4
// (QASMBench itself ships many more). Each generator is functionally
// verified by the package tests; together they widen the validation
// surface for the backends and give the benchmark harness more shapes
// (oracle-heavy, feedback-heavy, Hamiltonian-simulation) to exercise.

// WState prepares the n-qubit W state (equal superposition of all
// single-excitation basis states) with the standard cascade of controlled
// rotations: amplitude sqrt(1/n) is peeled off at each step.
func WState(n int) *circuit.Circuit {
	c := circuit.New("wstate", n)
	c.X(0)
	for i := 0; i < n-1; i++ {
		theta := 2 * math.Acos(math.Sqrt(1/float64(n-i)))
		c.CRY(theta, i, i+1)
		c.CX(i+1, i)
	}
	return c
}

// DeutschJozsa builds the n-qubit Deutsch-Jozsa circuit (n-1 data qubits
// plus one ancilla). If balancedMask is zero the oracle is constant and
// the data register measures all-zeros with certainty; otherwise the
// oracle is f(x) = parity(x & mask), balanced, and the all-zeros outcome
// has probability zero.
func DeutschJozsa(n int, balancedMask uint64) *circuit.Circuit {
	c := circuit.New("deutsch_jozsa", n)
	anc := n - 1
	for q := 0; q < anc; q++ {
		c.H(q)
	}
	c.X(anc)
	c.H(anc)
	for q := 0; q < anc; q++ {
		if balancedMask>>uint(q)&1 == 1 {
			c.CX(q, anc)
		}
	}
	for q := 0; q < anc; q++ {
		c.H(q)
	}
	return c
}

// Simon builds Simon's algorithm for the hidden XOR mask s over k data
// qubits (2k qubits total). The oracle implements f(x) = x XOR (x_j * s)
// with j the lowest set bit of s, which satisfies f(x) = f(x XOR s).
// Measuring the data register yields only strings y with y.s = 0 (mod 2).
func Simon(k int, s uint64) *circuit.Circuit {
	if s == 0 || s >= uint64(1)<<uint(k) {
		panic("qasmbench: Simon needs a non-zero mask within the data width")
	}
	c := circuit.New("simon", 2*k)
	j := 0
	for s>>uint(j)&1 == 0 {
		j++
	}
	for q := 0; q < k; q++ {
		c.H(q)
	}
	// Oracle: a_i = x_i XOR (x_j AND s_i).
	for i := 0; i < k; i++ {
		c.CX(i, k+i)
	}
	for i := 0; i < k; i++ {
		if s>>uint(i)&1 == 1 {
			c.CX(j, k+i)
		}
	}
	for q := 0; q < k; q++ {
		c.H(q)
	}
	return c
}

// GroverSearch builds a textbook Grover search over k data qubits for the
// single marked element, using the optimal iteration count and a Toffoli
// V-chain for the multi-controlled phase flips (k-2 ancillas are
// appended, so the circuit has 2k-2 qubits).
func GroverSearch(k int, marked uint64) *circuit.Circuit {
	if k < 3 {
		panic("qasmbench: GroverSearch needs at least 3 data qubits")
	}
	n := 2*k - 2
	c := circuit.New("grover", n)
	data := seqRange(0, k)
	anc := seqRange(k, k-2)
	for _, q := range data {
		c.H(q)
	}
	iters := int(math.Round(math.Pi / 4 * math.Sqrt(float64(int(1)<<uint(k)))))
	for it := 0; it < iters; it++ {
		groverMark(c, data, marked, anc)
		for _, q := range data {
			c.H(q)
		}
		groverMark(c, data, 0, anc)
		for _, q := range data {
			c.H(q)
		}
	}
	return c
}

func groverMark(c *circuit.Circuit, data []int, val uint64, anc []int) {
	for i, q := range data {
		if val>>uint(i)&1 == 0 {
			c.X(q)
		}
	}
	last := data[len(data)-1]
	c.H(last)
	for _, g := range decomp.MCXVChain(data[:len(data)-1], last, anc) {
		c.Append(g)
	}
	c.H(last)
	for i, q := range data {
		if val>>uint(i)&1 == 0 {
			c.X(q)
		}
	}
}

// IsingTrotter builds first-order Trotterized time evolution of the
// transverse-field Ising chain H = -J sum Z_i Z_{i+1} - h sum X_i for the
// given total time and step count (a Hamiltonian-simulation workload, the
// class behind VQE circuit structure).
func IsingTrotter(n int, j, h, t float64, steps int) *circuit.Circuit {
	c := circuit.New("ising_trotter", n)
	dt := t / float64(steps)
	for s := 0; s < steps; s++ {
		for q := 0; q+1 < n; q++ {
			// exp(i J dt Z Z) = RZZ(-2 J dt) up to global phase.
			c.RZZ(-2*j*dt, q, q+1)
		}
		for q := 0; q < n; q++ {
			c.RX(-2*h*dt, q)
		}
	}
	return c
}

// QECBitFlip builds the 3-qubit bit-flip repetition code with real
// mid-circuit syndrome measurement and classically controlled correction
// (the feedback pattern the OpenQASM `if` statement exists for): encode
// RY(theta)|0> across qubits 0-2, flip errorQubit, extract the syndrome
// into ancillas 3-4, measure them to cbits 0-1, correct with conditioned
// X gates, and decode.
func QECBitFlip(theta float64, errorQubit int) *circuit.Circuit {
	c := circuit.New("qec_bitflip", 5)
	c.NumClbits = 2
	c.RY(theta, 0)
	c.CX(0, 1)
	c.CX(0, 2)
	if errorQubit >= 0 {
		c.X(errorQubit)
	}
	// Syndrome extraction.
	c.CX(0, 3)
	c.CX(1, 3)
	c.CX(1, 4)
	c.CX(2, 4)
	c.Measure(3, 0)
	c.Measure(4, 1)
	// Correction (cbit0 = q0^q1, cbit1 = q1^q2): 01 -> q0, 11 -> q1, 10 -> q2.
	c.AppendCond(gate.NewX(0), circuit.Condition{Offset: 0, Width: 2, Value: 0b01})
	c.AppendCond(gate.NewX(1), circuit.Condition{Offset: 0, Width: 2, Value: 0b11})
	c.AppendCond(gate.NewX(2), circuit.Condition{Offset: 0, Width: 2, Value: 0b10})
	// Decode.
	c.CX(0, 2)
	c.CX(0, 1)
	return c
}

// RQC builds a quantum-supremacy-style random circuit in the pattern of
// Boixo et al. (the paper's reference [10]): alternating layers of random
// single-qubit gates from {sqrt(X), sqrt(Y), T} and a shifting pattern of
// CZ entanglers over a 1D chain, after an initial Hadamard wall. Such
// circuits anti-concentrate quickly, which makes them the standard
// hardness benchmark for state-vector simulators.
func RQC(n, layers int, seed int64) *circuit.Circuit {
	c := circuit.New("rqc", n)
	rng := newSplitMix(uint64(seed))
	for q := 0; q < n; q++ {
		c.H(q)
	}
	prev := make([]int, n) // last 1q gate per qubit, to avoid repeats
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			g := int(rng.next() % 3)
			if g == prev[q] {
				g = (g + 1) % 3
			}
			prev[q] = g
			switch g {
			case 0:
				c.Append(gate.NewSX(q))
			case 1:
				// sqrt(Y) = RY(pi/2) up to global phase.
				c.RY(math.Pi/2, q)
			default:
				c.T(q)
			}
		}
		for q := l % 2; q+1 < n; q += 2 {
			c.CZ(q, q+1)
		}
	}
	return c
}

// splitMix is a tiny deterministic PRNG (SplitMix64) so RQC instances are
// reproducible without math/rand state.
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed} }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
