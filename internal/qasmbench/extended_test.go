package qasmbench

import (
	"math"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/core"
	"svsim/internal/decomp"
	"svsim/internal/gate"
	"svsim/internal/ham"
	"svsim/internal/statevec"
)

func TestWStateAmplitudes(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		c := WState(n)
		s := runCircuit(t, c, n)
		want := 1 / float64(n)
		var total float64
		for i := 0; i < n; i++ {
			p := s.Probability(1 << uint(i))
			if math.Abs(p-want) > 1e-10 {
				t.Fatalf("n=%d: P(|e_%d>) = %g, want %g", n, i, p, want)
			}
			total += p
		}
		if math.Abs(total-1) > 1e-10 {
			t.Fatalf("n=%d: W state leaks %g outside the single-excitation space", n, 1-total)
		}
	}
}

func TestDeutschJozsaDistinguishesOracles(t *testing.T) {
	n := 8
	data := seqRange(0, n-1)
	// Constant oracle: all-zeros with certainty.
	s := runCircuit(t, DeutschJozsa(n, 0), n)
	if p := regValueProb(s, data, 0); math.Abs(p-1) > 1e-10 {
		t.Fatalf("constant oracle: P(0...0) = %g", p)
	}
	// Balanced oracles: all-zeros has probability exactly zero.
	for _, mask := range []uint64{0b1, 0b1011001, 0b1111111} {
		s := runCircuit(t, DeutschJozsa(n, mask), n)
		if p := regValueProb(s, data, 0); p > 1e-12 {
			t.Fatalf("balanced oracle %b: P(0...0) = %g", mask, p)
		}
	}
}

func TestSimonMeasurementsOrthogonalToSecret(t *testing.T) {
	k := 5
	for _, s := range []uint64{0b00101, 0b10000, 0b11111} {
		c := Simon(k, s)
		st := runCircuit(t, c, 2*k)
		data := seqRange(0, k)
		support := 0
		for y := uint64(0); y < 1<<uint(k); y++ {
			p := regValueProb(st, data, y)
			if p < 1e-12 {
				continue
			}
			support++
			// Every observable y must satisfy y . s = 0 (mod 2).
			parity := 0
			v := y & s
			for v != 0 {
				parity ^= int(v & 1)
				v >>= 1
			}
			if parity != 0 {
				t.Fatalf("s=%b: outcome %b with p=%g violates orthogonality", s, y, p)
			}
		}
		// The orthogonal space has 2^(k-1) elements; Simon's output covers it.
		if support != 1<<uint(k-1) {
			t.Fatalf("s=%b: support %d, want %d", s, support, 1<<uint(k-1))
		}
	}
}

func TestGroverSearchFindsMarked(t *testing.T) {
	k := 5
	marked := uint64(0b10110)
	c := GroverSearch(k, marked)
	s := runCircuit(t, c, c.NumQubits)
	if p := regValueProb(s, seqRange(0, k), marked); p < 0.95 {
		t.Fatalf("marked element amplified to only %g", p)
	}
	for _, q := range seqRange(k, k-2) {
		if p := s.ProbOne(q); p > 1e-9 {
			t.Fatalf("ancilla q%d dirty: %g", q, p)
		}
	}
}

func TestIsingTrotterConservesEnergy(t *testing.T) {
	// <H> is exactly conserved under exp(-iHt); a fine Trotterization must
	// conserve it approximately. Start from a non-eigenstate.
	n := 6
	j, h := 1.0, 0.7
	H := &ham.Hamiltonian{N: n}
	coeffs, labels := IsingHamiltonianLabels(n, j, h)
	for i := range coeffs {
		H.Add(coeffs[i], labels[i])
	}
	prep := func() *statevec.State {
		s := statevec.New(n)
		apply(s, gate.NewH(0))
		apply(s, gate.NewCX(0, 1))
		apply(s, gate.NewRY(0.7, 3))
		return s
	}
	before := H.Expectation(prep())
	fine := IsingTrotter(n, j, h, 1.0, 200)
	s := prep()
	for _, g := range fine.Gates() {
		g := g
		s.Apply(&g)
	}
	after := H.Expectation(s)
	if math.Abs(after-before) > 0.02 {
		t.Fatalf("fine Trotter drifted energy %g -> %g", before, after)
	}
	// A cruder Trotterization must drift more than the fine one.
	coarse := IsingTrotter(n, j, h, 1.0, 4)
	s2 := prep()
	for _, g := range coarse.Gates() {
		g := g
		s2.Apply(&g)
	}
	if d := math.Abs(H.Expectation(s2) - before); d <= math.Abs(after-before) {
		t.Fatalf("coarse Trotter (%g) not worse than fine (%g)", d, math.Abs(after-before))
	}
}

func TestQECBitFlipRecoversAllSingleErrors(t *testing.T) {
	theta := 1.1
	want := math.Sin(theta/2) * math.Sin(theta/2)
	for errQ := -1; errQ < 3; errQ++ {
		c := QECBitFlip(theta, errQ)
		for seed := int64(0); seed < 6; seed++ {
			res, err := core.NewSingleDevice(core.Config{Seed: seed}).Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if p := res.State.ProbOne(0); math.Abs(p-want) > 1e-9 {
				t.Fatalf("error on q%d seed %d: logical P(1) = %g, want %g", errQ, seed, p, want)
			}
			// The code qubits 1,2 must be disentangled back to |0>.
			for q := 1; q <= 2; q++ {
				if p := res.State.ProbOne(q); p > 1e-9 {
					t.Fatalf("error on q%d: code qubit q%d not restored (%g)", errQ, q, p)
				}
			}
		}
	}
}

func TestQECBitFlipOnDistributedBackend(t *testing.T) {
	// The feedback circuit exercises measurement + classical control on
	// the PGAS backend.
	c := QECBitFlip(0.9, 1)
	ref, err := core.NewSingleDevice(core.Config{Seed: 3}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.NewScaleOut(core.Config{Seed: 3, PEs: 4}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cbits != ref.Cbits {
		t.Fatalf("syndrome bits differ: %b vs %b", got.Cbits, ref.Cbits)
	}
	if d := got.State.MaxAbsDiff(ref.State); d > 1e-10 {
		t.Fatalf("distributed QEC deviates by %g", d)
	}
}

func TestExtendedCircuitsAreLowerable(t *testing.T) {
	// Every extended generator must survive full lowering unchanged in
	// semantics (spot check via state equality on one instance each).
	check := func(name string, n int, build func() *circuit.Circuit) {
		c := build().StripNonUnitary()
		a := statevec.New(n)
		for _, g := range c.Gates() {
			g := g
			a.Apply(&g)
		}
		low := decomp.Expand(c)
		b := statevec.New(n)
		for _, g := range low.Gates() {
			g := g
			b.Apply(&g)
		}
		if d := a.MaxAbsDiff(b); d > 1e-9 {
			t.Fatalf("%s: lowering changed the state by %g", name, d)
		}
	}
	check("wstate", 6, func() *circuit.Circuit { return WState(6) })
	check("dj", 6, func() *circuit.Circuit { return DeutschJozsa(6, 0b101) })
	check("simon", 8, func() *circuit.Circuit { return Simon(4, 0b0110) })
	check("ising", 5, func() *circuit.Circuit { return IsingTrotter(5, 1, 0.5, 0.3, 5) })
}

func TestExtendedGateKindCoverage(t *testing.T) {
	// The extended suite must exercise controlled rotations and RZZ (the
	// kinds Table 4's circuits underuse).
	if WState(5).CountKind(gate.CRY) == 0 {
		t.Fatal("wstate should use CRY")
	}
	if IsingTrotter(4, 1, 1, 1, 2).CountKind(gate.RZZ) == 0 {
		t.Fatal("ising should use RZZ")
	}
}

func TestRQCAntiConcentrates(t *testing.T) {
	// Deep random circuits approach the Porter-Thomas regime: no basis
	// state should hold a large fraction of probability, and the state
	// must spread over most of the space.
	n := 10
	c := RQC(n, 20, 7)
	s := runCircuit(t, c, n)
	probs := probabilities(s)
	maxP, support := 0.0, 0
	for _, p := range probs {
		if p > maxP {
			maxP = p
		}
		if p > 1e-9 {
			support++
		}
	}
	if maxP > 0.05 {
		t.Fatalf("RQC concentrated: max probability %g", maxP)
	}
	if support < s.Dim/2 {
		t.Fatalf("RQC support only %d of %d", support, s.Dim)
	}
	// Reproducibility.
	c2 := RQC(n, 20, 7)
	if c2.NumGates() != c.NumGates() {
		t.Fatal("RQC not deterministic")
	}
	s2 := runCircuit(t, c2, n)
	if d := s.MaxAbsDiff(s2); d != 0 {
		t.Fatal("RQC seeds not reproducible")
	}
	// Different seed, different circuit.
	c3 := RQC(n, 20, 8)
	s3 := runCircuit(t, c3, n)
	if s.MaxAbsDiff(s3) < 1e-6 {
		t.Fatal("different seeds gave identical states")
	}
}
