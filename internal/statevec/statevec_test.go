package statevec

import (
	"math"
	"math/rand"
	"testing"

	"svsim/internal/gate"
)

// randomState returns a Haar-ish random normalized n-qubit state.
func randomState(rng *rand.Rand, n int, style KernelStyle) *State {
	s := New(n)
	s.Style = style
	var norm float64
	for i := 0; i < s.Dim; i++ {
		s.Re[i] = rng.NormFloat64()
		s.Im[i] = rng.NormFloat64()
		norm += s.Re[i]*s.Re[i] + s.Im[i]*s.Im[i]
	}
	norm = math.Sqrt(norm)
	for i := 0; i < s.Dim; i++ {
		s.Re[i] /= norm
		s.Im[i] /= norm
	}
	return s
}

// applyDense applies gate g to the state via the dense reference matrix
// (gate.Unitary embedded in the full space), the independent oracle.
func applyDense(s *State, g gate.Gate) {
	pos := make([]int, g.NQ)
	for i := range pos {
		pos[i] = int(g.Qubits[i])
	}
	full := gate.Unitary(g).Embed(s.N, pos)
	full.Apply(s.Re, s.Im)
}

// sampleOperands returns a random distinct operand assignment for kind k on
// an n-qubit register.
func sampleOperands(rng *rand.Rand, k gate.Kind, n int) []int {
	perm := rng.Perm(n)
	return perm[:k.NumQubits()]
}

func randAngles(rng *rand.Rand, np int) []float64 {
	p := make([]float64, np)
	for i := range p {
		p[i] = (rng.Float64()*2 - 1) * 2 * math.Pi
	}
	return p
}

func kernelKinds() []gate.Kind {
	var ks []gate.Kind
	for i := 0; i < gate.NumKinds; i++ {
		k := gate.Kind(i)
		if k.Unitary() && k != gate.BARRIER && k != gate.GPHASE {
			ks = append(ks, k)
		}
	}
	return ks
}

func TestEveryKernelMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, style := range []KernelStyle{Scalar, Vectorized} {
		for _, k := range kernelKinds() {
			n := 6
			for trial := 0; trial < 4; trial++ {
				ops := sampleOperands(rng, k, n)
				g := gate.New(k, ops, randAngles(rng, k.NumParams())...)
				got := randomState(rng, n, style)
				want := got.Clone()
				got.Apply(&g)
				applyDense(want, g)
				if d := got.MaxAbsDiff(want); d > 1e-12 {
					t.Fatalf("style=%d kind=%s ops=%v: kernel deviates from dense reference by %g",
						style, k, ops, d)
				}
			}
		}
	}
}

func TestGPhaseKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randomState(rng, 4, Scalar)
	want := s.Clone()
	g := gate.NewGPhase(1.234)
	s.Apply(&g)
	c, sn := math.Cos(1.234), math.Sin(1.234)
	for i := 0; i < want.Dim; i++ {
		r, im := want.Re[i], want.Im[i]
		want.Re[i] = c*r - sn*im
		want.Im[i] = sn*r + c*im
	}
	if d := s.MaxAbsDiff(want); d > 1e-13 {
		t.Fatalf("gphase deviates by %g", d)
	}
}

func TestStylesProduceIdenticalStates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 8
	// A random deep circuit over all kinds, applied under both styles.
	var gates []gate.Gate
	kinds := kernelKinds()
	for i := 0; i < 200; i++ {
		k := kinds[rng.Intn(len(kinds))]
		gates = append(gates, gate.New(k, sampleOperands(rng, k, n), randAngles(rng, k.NumParams())...))
	}
	a := New(n)
	a.Style = Scalar
	b := New(n)
	b.Style = Vectorized
	a.ApplyAll(gates)
	b.ApplyAll(gates)
	if d := a.MaxAbsDiff(b); d > 1e-10 {
		t.Fatalf("scalar and vectorized styles diverge by %g", d)
	}
}

func TestNormPreservedByDeepCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 7
	s := New(n)
	kinds := kernelKinds()
	for i := 0; i < 500; i++ {
		k := kinds[rng.Intn(len(kinds))]
		g := gate.New(k, sampleOperands(rng, k, n), randAngles(rng, k.NumParams())...)
		s.Apply(&g)
	}
	if d := math.Abs(s.Norm() - 1); d > 1e-9 {
		t.Fatalf("norm drifted by %g after 500 gates", d)
	}
}

func TestAdjointRoundTripsState(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 6
	for _, k := range kernelKinds() {
		ops := sampleOperands(rng, k, n)
		g := gate.New(k, ops, randAngles(rng, k.NumParams())...)
		s := randomState(rng, n, Scalar)
		want := s.Clone()
		s.Apply(&g)
		for _, a := range gate.Adjoint(g) {
			s.Apply(&a)
		}
		if d := s.MaxAbsDiff(want); d > 1e-10 {
			t.Fatalf("kind %s: U-dagger U != I on states (diff %g)", k, d)
		}
	}
}

func TestBellState(t *testing.T) {
	s := New(2)
	h := gate.NewH(0)
	cx := gate.NewCX(0, 1)
	s.Apply(&h)
	s.Apply(&cx)
	if math.Abs(s.Probability(0)-0.5) > 1e-12 || math.Abs(s.Probability(3)-0.5) > 1e-12 {
		t.Fatalf("Bell state probabilities: %v", s.Probabilities())
	}
	if s.Probability(1) > 1e-12 || s.Probability(2) > 1e-12 {
		t.Fatal("Bell state has weight on |01> or |10>")
	}
}

func TestGHZState(t *testing.T) {
	n := 10
	s := New(n)
	h := gate.NewH(0)
	s.Apply(&h)
	for q := 1; q < n; q++ {
		cx := gate.NewCX(q-1, q)
		s.Apply(&cx)
	}
	if math.Abs(s.Probability(0)-0.5) > 1e-12 || math.Abs(s.Probability(s.Dim-1)-0.5) > 1e-12 {
		t.Fatal("GHZ state is wrong")
	}
}

func TestMeasureCollapse(t *testing.T) {
	// Bell state: measuring qubit 0 must perfectly correlate qubit 1.
	for _, r := range []float64{0.1, 0.9} {
		s := New(2)
		h := gate.NewH(0)
		cx := gate.NewCX(0, 1)
		s.Apply(&h)
		s.Apply(&cx)
		out := s.MeasureQubit(0, r)
		if p := s.ProbOne(1); math.Abs(p-float64(out)) > 1e-12 {
			t.Fatalf("after measuring %d on qubit 0, P(q1=1) = %g", out, p)
		}
		if math.Abs(s.Norm()-1) > 1e-12 {
			t.Fatal("collapsed state is not normalized")
		}
	}
}

func TestMeasureStatistics(t *testing.T) {
	// RY(theta) gives P(1) = sin^2(theta/2); check the measured frequency.
	theta := 1.1
	want := math.Sin(theta/2) * math.Sin(theta/2)
	rng := rand.New(rand.NewSource(23))
	trials := 20000
	ones := 0
	base := New(1)
	ry := gate.NewRY(theta, 0)
	base.Apply(&ry)
	for i := 0; i < trials; i++ {
		s := base.Clone()
		ones += s.MeasureQubit(0, rng.Float64())
	}
	got := float64(ones) / float64(trials)
	if math.Abs(got-want) > 0.015 {
		t.Fatalf("measured frequency %g, want %g", got, want)
	}
}

func TestResetQubit(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 20; trial++ {
		s := randomState(rng, 4, Scalar)
		s.ResetQubit(2, rng.Float64())
		if p := s.ProbOne(2); p > 1e-12 {
			t.Fatalf("after reset, P(q2=1) = %g", p)
		}
		if math.Abs(s.Norm()-1) > 1e-10 {
			t.Fatal("reset broke normalization")
		}
	}
}

func TestSampleDistribution(t *testing.T) {
	s := New(2)
	h0 := gate.NewH(0)
	h1 := gate.NewH(1)
	s.Apply(&h0)
	s.Apply(&h1)
	rng := rand.New(rand.NewSource(31))
	counts := s.Counts(rng, 40000)
	for idx := 0; idx < 4; idx++ {
		f := float64(counts[idx]) / 40000
		if math.Abs(f-0.25) > 0.02 {
			t.Fatalf("uniform state sampled index %d with frequency %g", idx, f)
		}
	}
}

func TestExpZ(t *testing.T) {
	s := New(2)
	if e := s.ExpZ(0); math.Abs(e-1) > 1e-12 {
		t.Fatalf("<Z> on |0> = %g", e)
	}
	x := gate.NewX(0)
	s.Apply(&x)
	if e := s.ExpZ(0); math.Abs(e+1) > 1e-12 {
		t.Fatalf("<Z> on |1> = %g", e)
	}
	h := gate.NewH(1)
	s.Apply(&h)
	if e := s.ExpZ(1); math.Abs(e) > 1e-12 {
		t.Fatalf("<Z> on |+> = %g", e)
	}
}

func TestExpZMask(t *testing.T) {
	// GHZ on 3 qubits: <ZZZ> = 0, <ZZ on qubits 0,1> = +1.
	s := New(3)
	h := gate.NewH(0)
	s.Apply(&h)
	for q := 1; q < 3; q++ {
		cx := gate.NewCX(q-1, q)
		s.Apply(&cx)
	}
	if e := s.ExpZMask(0b111); math.Abs(e) > 1e-12 {
		t.Fatalf("<ZZZ> on GHZ = %g", e)
	}
	if e := s.ExpZMask(0b011); math.Abs(e-1) > 1e-12 {
		t.Fatalf("<ZZ_01> on GHZ = %g", e)
	}
}

func TestInnerProductAndFidelity(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	s := randomState(rng, 5, Scalar)
	if f := s.Fidelity(s); math.Abs(f-1) > 1e-12 {
		t.Fatalf("self fidelity = %g", f)
	}
	o := s.Clone()
	z := gate.NewZ(0)
	o.Apply(&z) // orthogonal-ish transform keeps |<s|o>| <= 1
	if f := s.Fidelity(o); f > 1+1e-12 {
		t.Fatalf("fidelity above 1: %g", f)
	}
	// Global phase must not change fidelity.
	g := s.Clone()
	gp := gate.NewGPhase(0.77)
	g.Apply(&gp)
	if d := s.DistanceUpToGlobalPhase(g); d > 1e-7 {
		t.Fatalf("global phase changed phase-insensitive distance: %g", d)
	}
}

func TestApplyMatrixAgainstKernels(t *testing.T) {
	// The generic matrix path must agree with the specialized kernels on a
	// random circuit (the Aer-style baseline correctness check).
	rng := rand.New(rand.NewSource(41))
	n := 6
	kinds := kernelKinds()
	spec := randomState(rng, n, Scalar)
	genr := spec.Clone()
	for i := 0; i < 100; i++ {
		k := kinds[rng.Intn(len(kinds))]
		ops := sampleOperands(rng, k, n)
		g := gate.New(k, ops, randAngles(rng, k.NumParams())...)
		spec.Apply(&g)
		pos := make([]int, g.NQ)
		for j := range pos {
			pos[j] = int(g.Qubits[j])
		}
		genr.ApplyMatrix(gate.Unitary(g), pos)
	}
	if d := spec.MaxAbsDiff(genr); d > 1e-10 {
		t.Fatalf("generic matrix path deviates from kernels by %g", d)
	}
}

func TestApplyMC1QMultiControl(t *testing.T) {
	// 2-controlled H via ApplyMC1Q must equal dense reference.
	rng := rand.New(rand.NewSource(43))
	s := randomState(rng, 5, Scalar)
	want := s.Clone()
	hU := gate.Unitary(gate.NewH(0))
	s.ApplyMC1Q(hU, []int{1, 3}, 0)
	full := controlledDense(hU, 5, []int{1, 3}, 0)
	full.Apply(want.Re, want.Im)
	if d := s.MaxAbsDiff(want); d > 1e-12 {
		t.Fatalf("multi-controlled H deviates by %g", d)
	}
}

// controlledDense builds the dense controlled-U on an n-qubit register.
func controlledDense(u gate.Matrix, n int, ctrls []int, t int) gate.Matrix {
	dim := 1 << uint(n)
	m := gate.Identity(dim)
	var cmask int
	for _, c := range ctrls {
		cmask |= 1 << uint(c)
	}
	tbit := 1 << uint(t)
	for i := 0; i < dim; i++ {
		if i&cmask != cmask {
			continue
		}
		a := 0
		if i&tbit != 0 {
			a = 1
		}
		for b := 0; b < 2; b++ {
			col := i&^tbit | b*tbit
			m.Set(i, col, u.At(a, b))
		}
	}
	return m
}

func TestStatsCounters(t *testing.T) {
	s := New(4) // Dim = 16
	h := gate.NewH(0)
	s.Apply(&h)
	if s.Stats.Gates != 1 || s.Stats.AmpsTouched != 16 {
		t.Fatalf("H stats: %+v", s.Stats)
	}
	tg := gate.NewT(1)
	s.Apply(&tg)
	// T touches only half the amplitudes (the paper's headline gate-specific
	// optimization).
	if s.Stats.AmpsTouched != 16+8 {
		t.Fatalf("T stats: %+v", s.Stats)
	}
	cz := gate.NewCZ(0, 1)
	s.Apply(&cz)
	if s.Stats.AmpsTouched != 16+8+4 {
		t.Fatalf("CZ stats: %+v", s.Stats)
	}
	if s.Stats.BytesTouched != s.Stats.AmpsTouched*16 {
		t.Fatalf("bytes != 16*amps: %+v", s.Stats)
	}
}

func TestCloneAndReset(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	s := randomState(rng, 4, Vectorized)
	c := s.Clone()
	if d := s.MaxAbsDiff(c); d != 0 {
		t.Fatal("clone differs")
	}
	x := gate.NewX(0)
	c.Apply(&x)
	if s.MaxAbsDiff(c) == 0 {
		t.Fatal("clone aliases original")
	}
	s.Reset()
	if s.Probability(0) != 1 {
		t.Fatal("reset did not restore |0...0>")
	}
	if s.Stats.Gates != 0 {
		t.Fatal("reset did not clear stats")
	}
}

func TestNewRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, -1, MaxQubits + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) should panic", n)
				}
			}()
			New(n)
		}()
	}
}

func TestInsertZeroBit(t *testing.T) {
	// InsertZeroBit must enumerate exactly the indices with bit q == 0.
	for q := 0; q < 4; q++ {
		seen := map[int]bool{}
		for i := 0; i < 8; i++ {
			p := InsertZeroBit(i, q)
			if p&(1<<uint(q)) != 0 {
				t.Fatalf("InsertZeroBit(%d,%d) = %d has bit %d set", i, q, p, q)
			}
			if seen[p] {
				t.Fatalf("InsertZeroBit(%d,%d) duplicates %d", i, q, p)
			}
			seen[p] = true
		}
	}
}

func TestProbOneMatchesProbabilities(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	s := randomState(rng, 6, Scalar)
	probs := s.Probabilities()
	for q := 0; q < 6; q++ {
		var want float64
		for i, p := range probs {
			if i&(1<<uint(q)) != 0 {
				want += p
			}
		}
		if got := s.ProbOne(q); math.Abs(got-want) > 1e-12 {
			t.Fatalf("ProbOne(%d) = %g, want %g", q, got, want)
		}
	}
}
