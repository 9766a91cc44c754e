package statevec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"svsim/internal/gate"
)

// Property-based invariants of the core data structure, checked with
// testing/quick across randomized gate streams.

func TestQuickNormPreservation(t *testing.T) {
	// Property: any unitary gate stream preserves the 2-norm.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		s := randomState(rng, n, KernelStyle(rng.Intn(2)))
		kinds := kernelKinds()
		for i := 0; i < 30; i++ {
			k := kinds[rng.Intn(len(kinds))]
			if k.NumQubits() > n {
				continue
			}
			g := gate.New(k, sampleOperands(rng, k, n), randAngles(rng, k.NumParams())...)
			s.Apply(&g)
		}
		return math.Abs(s.Norm()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickDisjointGatesCommute(t *testing.T) {
	// Property: gates on disjoint qubit sets commute exactly.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6
		perm := rng.Perm(n)
		kinds := kernelKinds()
		var g1, g2 gate.Gate
		for {
			k := kinds[rng.Intn(len(kinds))]
			if k.NumQubits() > 3 {
				continue
			}
			g1 = gate.New(k, perm[:k.NumQubits()], randAngles(rng, k.NumParams())...)
			break
		}
		for {
			k := kinds[rng.Intn(len(kinds))]
			if k.NumQubits() > 3 {
				continue
			}
			g2 = gate.New(k, perm[3:3+k.NumQubits()], randAngles(rng, k.NumParams())...)
			break
		}
		a := randomState(rng, n, Scalar)
		b := a.Clone()
		a.Apply(&g1)
		a.Apply(&g2)
		b.Apply(&g2)
		b.Apply(&g1)
		return a.MaxAbsDiff(b) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickDiagonalGatesCommute(t *testing.T) {
	// Property: any two diagonal gates commute even on overlapping qubits.
	diagKinds := []gate.Kind{gate.Z, gate.S, gate.SDG, gate.T, gate.TDG,
		gate.U1, gate.RZ, gate.CZ, gate.CU1, gate.CRZ, gate.RZZ}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5
		mk := func() gate.Gate {
			k := diagKinds[rng.Intn(len(diagKinds))]
			return gate.New(k, sampleOperands(rng, k, n), randAngles(rng, k.NumParams())...)
		}
		g1, g2 := mk(), mk()
		a := randomState(rng, n, Scalar)
		b := a.Clone()
		a.Apply(&g1)
		a.Apply(&g2)
		b.Apply(&g2)
		b.Apply(&g1)
		return a.MaxAbsDiff(b) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickMeasurementProbabilitiesSumToOne(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomState(rng, 5, Scalar)
		var sum float64
		for _, p := range s.Probabilities() {
			if p < 0 {
				return false
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-10 {
			return false
		}
		// Per-qubit marginals consistent: P(q=1) in [0,1].
		for q := 0; q < 5; q++ {
			p := s.ProbOne(q)
			if p < -1e-12 || p > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickCollapseIsIdempotent(t *testing.T) {
	// Property: measuring the same qubit twice gives the same outcome and
	// the second collapse is a no-op.
	f := func(seed int64, r float64) bool {
		rng := rand.New(rand.NewSource(seed))
		r = math.Abs(math.Mod(r, 1))
		s := randomState(rng, 4, Scalar)
		q := rng.Intn(4)
		o1 := measure(s, q, r)
		snap := s.Clone()
		o2 := measure(s, q, rng.Float64())
		return o1 == o2 && s.MaxAbsDiff(snap) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickControlledGateFixesZeroControlSubspace(t *testing.T) {
	// Property: a controlled gate leaves amplitudes with any control at 0
	// untouched.
	ctrlKinds := []gate.Kind{gate.CX, gate.CY, gate.CZ, gate.CH, gate.CRX,
		gate.CRY, gate.CRZ, gate.CU1, gate.CU3, gate.CCX, gate.CSWAP, gate.C3X}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6
		k := ctrlKinds[rng.Intn(len(ctrlKinds))]
		g := gate.New(k, sampleOperands(rng, k, n), randAngles(rng, k.NumParams())...)
		s := randomState(rng, n, Scalar)
		before := s.Clone()
		s.Apply(&g)
		cmask := g.ControlMask()
		for i := 0; i < s.Dim; i++ {
			if uint64(i)&cmask == cmask {
				continue // controls satisfied; may change
			}
			if math.Abs(s.Re[i]-before.Re[i]) > 1e-12 ||
				math.Abs(s.Im[i]-before.Im[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
