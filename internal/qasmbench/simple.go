package qasmbench

import (
	"math"

	"svsim/internal/circuit"
)

// GHZ builds the n-qubit Greenberger-Horne-Zeilinger state with a Hadamard
// and a CX chain: n gates, n-1 CX, matching Table 4's ghz_state exactly.
func GHZ(n int) *circuit.Circuit {
	c := circuit.New("ghz_state", n)
	c.H(0)
	for q := 1; q < n; q++ {
		c.CX(q-1, q)
	}
	return c
}

// Cat builds the n-qubit cat state (coherent superposition with opposite
// phase) with a Hadamard fanned out by CXs from qubit 0: n gates, n-1 CX.
func Cat(n int) *circuit.Circuit {
	c := circuit.New("cat_state", n)
	c.H(0)
	for q := 1; q < n; q++ {
		c.CX(0, q)
	}
	return c
}

// bvSecret is the hidden all-ones string used by the BV instances (the
// configuration that reproduces Table 4's gate counts exactly).
func bvSecret(dataBits int) uint64 { return uint64(1)<<uint(dataBits) - 1 }

// BV builds the Bernstein-Vazirani circuit on n qubits (n-1 data qubits
// plus one ancilla) for the all-ones hidden string: 3n-1 gates, n-1 CX.
func BV(n int) *circuit.Circuit {
	return BVSecret(n, bvSecret(n-1))
}

// BVSecret builds Bernstein-Vazirani for an arbitrary hidden string.
func BVSecret(n int, secret uint64) *circuit.Circuit {
	c := circuit.New("bv", n)
	anc := n - 1
	for q := 0; q < anc; q++ {
		c.H(q)
	}
	c.X(anc)
	c.H(anc)
	for q := 0; q < anc; q++ {
		if secret>>uint(q)&1 == 1 {
			c.CX(q, anc)
		}
	}
	for q := 0; q < anc; q++ {
		c.H(q)
	}
	return c
}

// CC builds the counterfeit-coin finding circuit on n qubits: n-1 coin
// qubits in superposition, each linked to the balance qubit: 2(n-1) gates,
// n-1 CX, matching Table 4's cc entries exactly.
func CC(n int) *circuit.Circuit {
	c := circuit.New("cc", n)
	balance := n - 1
	for q := 0; q < balance; q++ {
		c.H(q)
	}
	for q := 0; q < balance; q++ {
		c.CX(q, balance)
	}
	return c
}

// QFT builds the n-qubit quantum Fourier transform as Hadamards plus
// controlled-phase (cu1) rotations, without the final qubit-reversal
// swaps. The compact form keeps cu1 intact (SV-Sim executes it as a
// specialized diagonal kernel); lowering each cu1 to its 5-gate qelib1
// body gives exactly Table 4's counts (540 gates / 210 CX at n=15,
// 970/380 at n=20).
func QFT(n int) *circuit.Circuit {
	c := circuit.New("qft", n)
	appendQFT(c, 0, n, false)
	return c
}

// appendQFT appends the (inverse) QFT over qubits [lo, lo+w) in lowered
// cu1 form.
func appendQFT(c *circuit.Circuit, lo, w int, inverse bool) {
	sign := 1.0
	if inverse {
		sign = -1
	}
	if !inverse {
		for i := w - 1; i >= 0; i-- {
			c.H(lo + i)
			for j := i - 1; j >= 0; j-- {
				c.CU1(sign*math.Pi/float64(int(1)<<uint(i-j)), lo+j, lo+i)
			}
		}
		return
	}
	for i := 0; i < w; i++ {
		for j := 0; j < i; j++ {
			c.CU1(sign*math.Pi/float64(int(1)<<uint(i-j)), lo+j, lo+i)
		}
		c.H(lo + i)
	}
}
