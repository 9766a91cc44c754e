package qasmbench

import (
	"math"
	"math/rand"
	"testing"

	"svsim/internal/decomp"
	"svsim/internal/gate"
	"svsim/internal/statevec"
)

// runCircuit simulates a generated circuit on the single-device kernels.
// apply runs g on s: the state's one entry point for a gate.
func apply(s *statevec.State, g gate.Gate) { s.Apply(&g) }

func runCircuit(t *testing.T, c interface {
	Gates() []gate.Gate
	Validate() error
},
	n int) *statevec.State {
	t.Helper()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	s := statevec.New(n)
	for _, g := range c.Gates() {
		g := g
		s.Apply(&g)
	}
	return s
}

// probabilities returns the full probability vector of s.
func probabilities(s *statevec.State) []float64 {
	p := make([]float64, s.Dim)
	for i := range p {
		p[i] = s.Probability(i)
	}
	return p
}

// regValueProb sums the probability that the given register qubits spell
// val, marginalizing everything else.
func regValueProb(s *statevec.State, reg []int, val uint64) float64 {
	var p float64
	probs := probabilities(s)
	for idx, pr := range probs {
		v := uint64(0)
		for bi, q := range reg {
			if idx>>uint(q)&1 == 1 {
				v |= 1 << uint(bi)
			}
		}
		if v == val {
			p += pr
		}
	}
	return p
}

func TestGHZAndCat(t *testing.T) {
	for _, build := range []func(int) interface {
		Gates() []gate.Gate
		Validate() error
	}{
		func(n int) interface {
			Gates() []gate.Gate
			Validate() error
		} {
			return GHZ(n)
		},
		func(n int) interface {
			Gates() []gate.Gate
			Validate() error
		} {
			return Cat(n)
		},
	} {
		n := 12
		s := runCircuit(t, build(n), n)
		if math.Abs(s.Probability(0)-0.5) > 1e-12 || math.Abs(s.Probability(s.Dim-1)-0.5) > 1e-12 {
			t.Fatal("state is not an equal superposition of extremes")
		}
	}
	if g := GHZ(23); g.NumGates() != 23 || g.CountKind(gate.CX) != 22 {
		t.Fatalf("ghz_state counts: %s", g.Summary())
	}
	if c := Cat(22); c.NumGates() != 22 || c.CountKind(gate.CX) != 21 {
		t.Fatalf("cat_state counts: %s", c.Summary())
	}
}

func TestBVRecoversSecret(t *testing.T) {
	for _, n := range []int{6, 14, 19} {
		for _, secret := range []uint64{bvSecret(n - 1), 0b1011, 1} {
			c := BVSecret(n, secret)
			s := runCircuit(t, c, n)
			data := make([]int, n-1)
			for i := range data {
				data[i] = i
			}
			if p := regValueProb(s, data, secret); math.Abs(p-1) > 1e-10 {
				t.Fatalf("n=%d secret=%b recovered with probability %g", n, secret, p)
			}
		}
	}
	if c := BV(14); c.NumGates() != 41 || c.CountKind(gate.CX) != 13 {
		t.Fatalf("bv_n14 counts: %s", c.Summary())
	}
	if c := BV(19); c.NumGates() != 56 || c.CountKind(gate.CX) != 18 {
		t.Fatalf("bv_n19 counts: %s", c.Summary())
	}
}

func TestCCBalanceParity(t *testing.T) {
	n := 8
	s := runCircuit(t, CC(n), n)
	probs := probabilities(s)
	for idx, p := range probs {
		if p < 1e-14 {
			continue
		}
		parity := 0
		for q := 0; q < n-1; q++ {
			parity ^= idx >> uint(q) & 1
		}
		if idx>>uint(n-1)&1 != parity {
			t.Fatalf("basis state %b has weight but balance != coin parity", idx)
		}
	}
	if c := CC(12); c.NumGates() != 22 || c.CountKind(gate.CX) != 11 {
		t.Fatalf("cc_n12 counts: %s", c.Summary())
	}
	if c := CC(18); c.NumGates() != 34 || c.CountKind(gate.CX) != 17 {
		t.Fatalf("cc_n18 counts: %s", c.Summary())
	}
}

func TestQFTCountsAndInverse(t *testing.T) {
	if c := decomp.Expand(QFT(15)); c.NumGates() != 540 || c.CountKind(gate.CX) != 210 {
		t.Fatalf("qft_n15 lowered counts: %s", c.Summary())
	}
	if c := decomp.Expand(QFT(20)); c.NumGates() != 970 || c.CountKind(gate.CX) != 380 {
		t.Fatalf("qft_n20 lowered counts: %s", c.Summary())
	}
	// The compact form keeps the cu1 gates intact (n + n(n-1)/2 gates).
	if c := QFT(15); c.NumGates() != 120 || c.CountKind(gate.CU1) != 105 {
		t.Fatalf("qft_n15 compact counts: %s", c.Summary())
	}
	// QFT then inverse QFT must be the identity on random basis states.
	n := 7
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		x := rng.Intn(1 << uint(n))
		s := statevec.New(n)
		for q := 0; q < n; q++ {
			if x>>uint(q)&1 == 1 {
				apply(s, gate.NewX(q))
			}
		}
		fw := QFT(n)
		for _, g := range fw.Gates() {
			g := g
			s.Apply(&g)
		}
		ic := IQFT(n)
		for _, g := range ic.Gates() {
			g := g
			s.Apply(&g)
		}
		if p := s.Probability(x); math.Abs(p-1) > 1e-9 {
			t.Fatalf("QFT round trip of |%b> returned probability %g", x, p)
		}
	}
	// QFT of |0> is the uniform positive superposition.
	s := runCircuit(t, QFT(6), 6)
	amp := 1 / math.Sqrt(64)
	for i := 0; i < 64; i++ {
		if math.Abs(s.Re[i]-amp) > 1e-10 || math.Abs(s.Im[i]) > 1e-10 {
			t.Fatalf("QFT|0> amplitude %d = %v", i, s.Amplitude(i))
		}
	}
}

func TestBigAdder(t *testing.T) {
	cases := []struct{ a, b uint64 }{{13, 200}, {255, 1}, {0, 0}, {170, 85}}
	for _, cse := range cases {
		c := BigAdder(18, cse.a, cse.b)
		if c.NumQubits != 18 {
			t.Fatalf("bigadder qubits: %d", c.NumQubits)
		}
		s := runCircuit(t, c, 18)
		breg, cout := BigAdderLayout(18)
		sum := cse.a + cse.b
		if p := regValueProb(s, breg, sum&0xff); math.Abs(p-1) > 1e-9 {
			t.Fatalf("%d+%d: sum register wrong (p=%g)", cse.a, cse.b, p)
		}
		carry := (sum >> 8) & 1
		if p := regValueProb(s, []int{cout}, carry); math.Abs(p-1) > 1e-9 {
			t.Fatalf("%d+%d: carry wrong (p=%g)", cse.a, cse.b, p)
		}
	}
	c := BigAdder(18, 13, 200)
	t.Logf("bigadder: %s (paper: 284 gates, 130 cx)", c.Summary())
}

func TestMultiplier(t *testing.T) {
	c := Multiply()
	if c.NumQubits != 13 {
		t.Fatalf("multiply qubits: %d", c.NumQubits)
	}
	s := runCircuit(t, c, 13)
	prod := MultiplierLayout(2, 3)
	if p := regValueProb(s, prod, 15); math.Abs(p-1) > 1e-9 {
		t.Fatalf("3x5 product wrong (p=%g)", p)
	}
	c15 := Multiplier15()
	if c15.NumQubits != 15 {
		t.Fatalf("multiplier qubits: %d", c15.NumQubits)
	}
	s15 := runCircuit(t, c15, 15)
	prod15 := MultiplierLayout(2, 4)
	if p := regValueProb(s15, prod15, 39); math.Abs(p-1) > 1e-9 {
		t.Fatalf("3x13 product wrong (p=%g)", p)
	}
	t.Logf("multiply: %s (paper: 98 gates, 40 cx)", c.Summary())
	t.Logf("multiplier: %s (paper: 574 gates, 246 cx)", c15.Summary())
}

func TestMultiplierGeneralQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 6; trial++ {
		wa, wb := 2+rng.Intn(2), 2+rng.Intn(2)
		a := uint64(rng.Intn(1 << uint(wa)))
		b := uint64(rng.Intn(1 << uint(wb)))
		c := MultiplierCircuit("mul", wa, wb, a, b)
		s := runCircuit(t, c, c.NumQubits)
		if p := regValueProb(s, MultiplierLayout(wa, wb), a*b); math.Abs(p-1) > 1e-9 {
			t.Fatalf("%d x %d failed (p=%g)", a, b, p)
		}
	}
}

func TestSATAmplifiesSolutions(t *testing.T) {
	sols := SATSolutions()
	if len(sols) == 0 || len(sols) == 16 {
		t.Fatalf("degenerate SAT instance: %v", sols)
	}
	c := SAT(11)
	s := runCircuit(t, c, 11)
	vars := []int{0, 1, 2, 3}
	var solMass float64
	for _, x := range sols {
		solMass += regValueProb(s, vars, uint64(x))
	}
	uniform := float64(len(sols)) / 16
	if solMass <= uniform+0.1 {
		t.Fatalf("Grover did not amplify: solution mass %g vs uniform %g", solMass, uniform)
	}
	// Ancillas, oracle output must be uncomputed.
	for _, q := range []int{4, 5, 6, 7, 8, 9} {
		if p := s.ProbOne(q); p > 1e-9 {
			t.Fatalf("ancilla q%d dirty: %g", q, p)
		}
	}
	t.Logf("sat: %s, solution mass %.3f (uniform %.3f, paper: 679 gates, 252 cx)",
		c.Summary(), solMass, uniform)
}

func TestSquareRootAmplifiesTarget(t *testing.T) {
	c := SquareRoot(18)
	s := runCircuit(t, c, 18)
	data := seqRange(0, 7)
	p := regValueProb(s, data, SquareRootTarget)
	if p < 0.9 {
		t.Fatalf("target amplified to only %g", p)
	}
	for _, q := range seqRange(7, 11) {
		if pq := s.ProbOne(q); pq > 1e-9 {
			t.Fatalf("ancilla q%d dirty: %g", q, pq)
		}
	}
	t.Logf("square_root: %s, target probability %.4f (paper: 2300 gates, 898 cx)", c.Summary(), p)
}

func TestSECATeleportsThroughErrors(t *testing.T) {
	c := SECA(11)
	s := runCircuit(t, c, 11)
	// The teleported qubit must carry RY(theta)|0>.
	want := math.Sin(SECATheta/2) * math.Sin(SECATheta/2)
	if p := s.ProbOne(10); math.Abs(p-want) > 1e-9 {
		t.Fatalf("teleported P(1) = %g, want %g", p, want)
	}
	// All code and syndrome qubits must be restored to |0>.
	for q := 1; q <= 8; q++ {
		if p := s.ProbOne(q); p > 1e-9 {
			t.Fatalf("code qubit q%d not cleaned: %g", q, p)
		}
	}
	t.Logf("seca: %s (paper: 216 gates, 84 cx)", c.Summary())
}

func TestQF21FindsThePeriod(t *testing.T) {
	c := QF21(15)
	s := runCircuit(t, c, 15)
	counting := seqRange(0, QF21CountingBits)
	best, bestP := -1, 0.0
	for v := 0; v < 1<<QF21CountingBits; v++ {
		if p := regValueProb(s, counting, uint64(v)); p > bestP {
			best, bestP = v, p
		}
	}
	peak := QF21Peak() // 341
	if best != peak && best != peak+1 && best != peak-1 {
		t.Fatalf("QPE peak at %d (p=%.3f), want near %d", best, bestP, peak)
	}
	if bestP < 0.3 {
		t.Fatalf("QPE peak too weak: %g", bestP)
	}
	t.Logf("qf21: %s, peak %d with p=%.3f (paper: 311 gates, 115 cx)", c.Summary(), best, bestP)
}

func TestDNNShape(t *testing.T) {
	c := DNN(16, 24)
	if c.NumQubits != 16 {
		t.Fatalf("dnn qubits: %d", c.NumQubits)
	}
	if cx := c.CountKind(gate.CX); cx != 384 {
		t.Fatalf("dnn CX count %d, want 384 (paper)", cx)
	}
	if g := c.NumGates(); g < 1800 || g > 2100 {
		t.Fatalf("dnn gate count %d not near the paper's 2016", g)
	}
	s := runCircuit(t, c, 16)
	if d := math.Abs(s.Norm() - 1); d > 1e-9 {
		t.Fatalf("dnn broke normalization by %g", d)
	}
}

func TestSuiteMetadata(t *testing.T) {
	if len(Medium()) != 8 || len(Large()) != 8 {
		t.Fatalf("suite sizes: %d medium, %d large", len(Medium()), len(Large()))
	}
	for _, e := range All() {
		c := e.Build()
		if c.NumQubits != e.Qubits {
			t.Errorf("%s: %d qubits, want %d", e.Name, c.NumQubits, e.Qubits)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
		// Lowered circuits must stay in the basic+standard ISA.
		for i := range c.Ops {
			if !decomp.IsStandard(c.Ops[i].G.Kind) {
				t.Errorf("%s: op %d has non-standard kind %s", e.Name, i, c.Ops[i].G.Kind)
				break
			}
		}
		// The exactly-reproducible entries (ghz/cat/bv/cc/qft) are pinned in
		// their own tests; the algorithmic ones must stay within a 5x band
		// of Table 4 (our Toffoli lowering differs from QASMBench's; see
		// EXPERIMENTS.md for the per-circuit comparison).
		if e.PaperGates > 0 {
			got := c.NumGates()
			if got < e.PaperGates/5 || got > e.PaperGates*5 {
				t.Errorf("%s: generated %d gates, paper reports %d (outside 5x band)",
					e.Name, got, e.PaperGates)
			}
		}
	}
	if _, err := ByName("ghz_state"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName accepted a bogus name")
	}
	if len(Names()) != 23 {
		t.Errorf("Names: %d", len(Names()))
	}
	if len(Extended()) != 7 {
		t.Errorf("Extended: %d", len(Extended()))
	}
}

func TestUCCSDCountsMatchPaperShape(t *testing.T) {
	// Fig. 17: from hundreds of gates at 5 qubits to ~2.3M at 24 qubits.
	g5 := UCCSDGateCount(5)
	if g5 < 300 || g5 > 1200 {
		t.Fatalf("UCCSD(5) = %d gates, want hundreds", g5)
	}
	g24 := UCCSDGateCount(24)
	if g24 < 700_000 || g24 > 5_000_000 {
		t.Fatalf("UCCSD(24) = %d gates, want millions", g24)
	}
	// Monotone growth.
	prev := int64(0)
	for n := 4; n <= 24; n += 2 {
		g := UCCSDGateCount(n)
		if g <= prev {
			t.Fatalf("UCCSD count not growing at n=%d", n)
		}
		prev = g
	}
	if UCCSDCXCount(8) <= 0 {
		t.Fatal("cx count")
	}
}

func TestUCCSDBuildMatchesCount(t *testing.T) {
	for _, n := range []int{4, 6} {
		thetas := make([]float64, UCCSDNumParams(n))
		rng := rand.New(rand.NewSource(7))
		for i := range thetas {
			thetas[i] = rng.NormFloat64() * 0.1
		}
		c := BuildUCCSD(n, thetas)
		if int64(c.NumGates()) != UCCSDGateCount(n) {
			t.Fatalf("n=%d: built %d gates, count model says %d",
				n, c.NumGates(), UCCSDGateCount(n))
		}
		if got := int64(c.CountKind(gate.CX)); got != UCCSDCXCount(n) {
			t.Fatalf("n=%d: built %d cx, model says %d", n, got, UCCSDCXCount(n))
		}
	}
}

func TestUCCSDConservesParticleNumber(t *testing.T) {
	// The cluster operator commutes with the number operator, so the
	// ansatz must keep <N> = occ for any parameters. This validates the
	// Jordan-Wigner string signs.
	n := 4
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 5; trial++ {
		thetas := make([]float64, UCCSDNumParams(n))
		for i := range thetas {
			thetas[i] = rng.NormFloat64()
		}
		c := BuildUCCSD(n, thetas)
		s := runCircuit(t, c, n)
		zs, z := make([]uint64, n), make([]float64, n)
		for q := range zs {
			zs[q] = 1 << uint(q)
		}
		s.ExpPauliGroup(0, zs, z)
		var num float64
		for _, v := range z {
			num += (1 - v) / 2
		}
		if math.Abs(num-float64(n/2)) > 1e-8 {
			t.Fatalf("particle number drifted to %g (thetas %v)", num, thetas)
		}
	}
}
