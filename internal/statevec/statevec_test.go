package statevec

import (
	"math"
	"math/bits"
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
// apply runs g on s.
func apply(s *State, g gate.Gate) { s.Apply(&g) }

// measure collapses qubit q with draw r as the runtime does — ProbOne,
// then Project onto the outcome the draw picks — and returns the outcome.
func measure(s *State, q int, r float64) int {
	p1 := s.ProbOne(q)
	outcome := 0
	if r < p1 {
		outcome = 1
	}
	s.Project(q, outcome, p1)
	return outcome
}

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

// TestZeroStyleIsVectorized pins the contract every caller that leaves
// Style unset relies on: it runs the Listing 2 kernels (AVX2 on amd64),
// and Scalar runs only where it is named.
func TestZeroStyleIsVectorized(t *testing.T) {
	var zero KernelStyle
	if zero != Vectorized {
		t.Fatalf("zero KernelStyle = %d, want Vectorized (%d)", zero, Vectorized)
	}
	if New(3).Style != Vectorized {
		t.Fatal("New leaves Style at something other than Vectorized")
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
	for i := range gates {
		a.Apply(&gates[i])
		b.Apply(&gates[i])
	}
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
		out := measure(s, 0, r)
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
		ones += measure(s, 0, rng.Float64())
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
		if measure(s, 2, rng.Float64()) == 1 {
			apply(s, gate.NewX(2))
		}
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

// expZ reads <Z_mask> through the one expectation pass.
func expZ(s *State, mask uint64) float64 {
	var e [1]float64
	s.ExpPauliGroup(0, []uint64{mask}, e[:])
	return e[0]
}

func TestExpZ(t *testing.T) {
	s := New(2)
	if e := expZ(s, 1<<0); math.Abs(e-1) > 1e-12 {
		t.Fatalf("<Z> on |0> = %g", e)
	}
	x := gate.NewX(0)
	s.Apply(&x)
	if e := expZ(s, 1<<0); math.Abs(e+1) > 1e-12 {
		t.Fatalf("<Z> on |1> = %g", e)
	}
	h := gate.NewH(1)
	s.Apply(&h)
	if e := expZ(s, 1<<1); math.Abs(e) > 1e-12 {
		t.Fatalf("<Z> on |+> = %g", e)
	}
}

func TestExpZMask(t *testing.T) {
	// GHZ on 3 qubits: <ZZZ> = 0, <ZZ on qubits 0,1> = +1, both read in
	// one pass.
	s := New(3)
	h := gate.NewH(0)
	s.Apply(&h)
	for q := 1; q < 3; q++ {
		cx := gate.NewCX(q-1, q)
		s.Apply(&cx)
	}
	out := make([]float64, 2)
	s.ExpPauliGroup(0, []uint64{0b111, 0b011}, out)
	if math.Abs(out[0]) > 1e-12 {
		t.Fatalf("<ZZZ> on GHZ = %g", out[0])
	}
	if math.Abs(out[1]-1) > 1e-12 {
		t.Fatalf("<ZZ_01> on GHZ = %g", out[1])
	}
}

// refExpZMask is the Z-string expectation loop ExpPauliGroup's x == 0
// case must reproduce bit for bit: ±|a[i]|^2 summed in index order.
func refExpZMask(s *State, mask uint64) float64 {
	var e float64
	for i := 0; i < s.Dim; i++ {
		p := s.Re[i]*s.Re[i] + s.Im[i]*s.Im[i]
		if bits.OnesCount64(uint64(i)&mask)&1 == 0 {
			e += p
		} else {
			e -= p
		}
	}
	return e
}

func TestExpPauliGroupZIsExpZMask(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, style := range []KernelStyle{Scalar, Vectorized} {
		for n := 1; n <= 9; n++ {
			s := randomState(rng, n, style)
			zs := make([]uint64, 12)
			for k := range zs {
				zs[k] = rng.Uint64() & (1<<uint(n) - 1)
			}
			// A Z bit above the state names no qubit of it.
			zs[0] |= 1 << uint(n)
			out := make([]float64, len(zs))
			s.ExpPauliGroup(0, zs, out)
			for k, z := range zs {
				if want := refExpZMask(s, z); math.Float64bits(out[k]) != math.Float64bits(want) {
					t.Fatalf("style %d n=%d z=%b: %v, want %v", style, n, z, out[k], want)
				}
			}
		}
	}
}

func TestExpPauliGroupRejectsXOutsideState(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("an X bit above the state was accepted")
		}
	}()
	New(3).ExpPauliGroup(1<<3, []uint64{0}, make([]float64, 1))
}

func TestExpPauliGroupIsReadOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	s := randomState(rng, 6, Vectorized)
	c := s.Clone()
	stats := s.Stats
	s.ExpPauliGroup(0b101100, []uint64{0b100, 0b001001, 0}, make([]float64, 3))
	if d := s.MaxAbsDiff(c); d != 0 {
		t.Fatalf("the pass wrote the state (%g)", d)
	}
	if s.Stats != stats {
		t.Fatal("the pass charged Stats")
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
