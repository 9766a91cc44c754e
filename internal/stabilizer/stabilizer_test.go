package stabilizer

import (
	"math"
	"math/rand"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/core"
	"svsim/internal/gate"
)

// randomClifford builds a random Clifford circuit.
func randomClifford(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New("clifford", n)
	for i := 0; i < gates; i++ {
		switch rng.Intn(7) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.S(rng.Intn(n))
		case 2:
			c.Sdg(rng.Intn(n))
		case 3:
			c.X(rng.Intn(n))
		case 4:
			c.Z(rng.Intn(n))
		default:
			p := rng.Perm(n)
			if rng.Intn(2) == 0 {
				c.CX(p[0], p[1])
			} else {
				c.CZ(p[0], p[1])
			}
		}
	}
	return c
}

// measureAllDistribution samples full-register measurement outcomes from
// the tableau by cloning per shot.
func measureAllDistribution(t *Tableau, shots int, seed int64) map[uint64]int {
	rng := rand.New(rand.NewSource(seed))
	counts := map[uint64]int{}
	for s := 0; s < shots; s++ {
		cl := t.Clone()
		var v uint64
		for q := 0; q < t.N; q++ {
			if cl.Measure(q, rng) == 1 {
				v |= uint64(1) << uint(q)
			}
		}
		counts[v]++
	}
	return counts
}

func TestTableauMatchesStateVectorDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		n := 5
		c := randomClifford(rng, n, 60)
		tab, _, err := Run(c, 1)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.NewSingleDevice(core.Config{}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		probs := make([]float64, ref.State.Dim)
		for i := range probs {
			probs[i] = ref.State.Probability(i)
		}
		const shots = 4000
		counts := measureAllDistribution(tab, shots, int64(trial))
		// Support check: tableau outcomes only where the state vector has
		// probability; frequencies within statistical tolerance.
		for v, cnt := range counts {
			p := probs[v]
			if p < 1e-12 {
				t.Fatalf("trial %d: tableau produced impossible outcome %b", trial, v)
			}
			f := float64(cnt) / shots
			if math.Abs(f-p) > 0.05 {
				t.Fatalf("trial %d: outcome %b frequency %.3f vs probability %.3f",
					trial, v, f, p)
			}
		}
		// Coverage: every outcome with substantial probability was seen.
		for v, p := range probs {
			if p > 0.05 && counts[uint64(v)] == 0 {
				t.Fatalf("trial %d: outcome %b (p=%.3f) never sampled", trial, v, p)
			}
		}
	}
}

func TestGHZCorrelations(t *testing.T) {
	n := 6
	c := circuit.New("ghz", n)
	c.H(0)
	for q := 1; q < n; q++ {
		c.CX(q-1, q)
	}
	tab, _, err := Run(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	zeros, ones := 0, 0
	for s := 0; s < 400; s++ {
		cl := tab.Clone()
		first := cl.Measure(0, rng)
		// All remaining measurements must be deterministic and equal.
		for q := 1; q < n; q++ {
			if cl.Measure(q, rng) != first {
				t.Fatal("GHZ correlation broken")
			}
		}
		if first == 0 {
			zeros++
		} else {
			ones++
		}
	}
	if zeros < 120 || ones < 120 {
		t.Fatalf("GHZ outcomes skewed: %d/%d", zeros, ones)
	}
}

func TestDeterministicMeasurements(t *testing.T) {
	// |0> measures 0; X|0> measures 1; repeated measurement is stable.
	tab := New(3)
	rng := rand.New(rand.NewSource(3))
	if tab.Measure(0, rng) != 0 {
		t.Fatal("fresh qubit measured 1")
	}
	tab.X(1)
	if tab.Measure(1, rng) != 1 {
		t.Fatal("X|0> measured 0")
	}
	tab.H(2)
	first := tab.Measure(2, rng)
	for i := 0; i < 10; i++ {
		if tab.Measure(2, rng) != first {
			t.Fatal("repeated measurement changed")
		}
	}
}

func TestSAndZIdentities(t *testing.T) {
	// S^2 = Z and HZH = X at the measurement level.
	rng := rand.New(rand.NewSource(4))
	a := New(1)
	a.H(0)
	a.S(0)
	a.S(0)
	a.H(0) // H Z H |+... overall: H S S H |0> = H Z H |0> = X|0> = |1>
	if a.Measure(0, rng) != 1 {
		t.Fatal("HSSH|0> != |1>")
	}
	b := New(1)
	b.Sdg(0)
	b.S(0)
	if b.Measure(0, rng) != 0 {
		t.Fatal("S Sdg changed |0>")
	}
}

func TestRunWithFeedback(t *testing.T) {
	// Teleportation on the tableau: measured corrections restore the bit.
	for seed := int64(0); seed < 20; seed++ {
		c := circuit.New("teleport", 3)
		c.X(0) // teleport |1>
		c.H(1)
		c.CX(1, 2)
		c.CX(0, 1)
		c.H(0)
		c.Measure(1, 0)
		c.Measure(0, 1)
		c.AppendCond(gate.NewX(2), circuit.Condition{Offset: 0, Width: 1, Value: 1})
		c.AppendCond(gate.NewZ(2), circuit.Condition{Offset: 1, Width: 1, Value: 1})
		c.Measure(2, 2)
		_, cbits, err := Run(c, seed)
		if err != nil {
			t.Fatal(err)
		}
		if cbits>>2&1 != 1 {
			t.Fatalf("seed %d: teleported bit lost (cbits %b)", seed, cbits)
		}
	}
}

func TestRejectsNonClifford(t *testing.T) {
	c := circuit.New("t", 1)
	c.T(0)
	if _, _, err := Run(c, 0); err == nil {
		t.Fatal("T gate accepted")
	}
	if IsClifford(gate.T) || !IsClifford(gate.CX) {
		t.Fatal("IsClifford wrong")
	}
}

func TestThousandQubitGHZ(t *testing.T) {
	// The whole point of the tableau: sizes no state vector can touch.
	n := 1000
	tab := New(n)
	tab.H(0)
	for q := 1; q < n; q++ {
		tab.CX(q-1, q)
	}
	rng := rand.New(rand.NewSource(5))
	first := tab.Measure(0, rng)
	for _, q := range []int{1, 500, 999} {
		if tab.Measure(q, rng) != first {
			t.Fatal("1000-qubit GHZ correlation broken")
		}
	}
}
