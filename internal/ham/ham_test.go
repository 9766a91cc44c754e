package ham

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/gate"
	"svsim/internal/statevec"
)

// apply runs g on s: the state's one entry point for a gate.
func apply(s *statevec.State, g gate.Gate) { s.Apply(&g) }

func randomState(rng *rand.Rand, n int) *statevec.State {
	s := statevec.New(n)
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

// denseExpectation computes <s|H|s> through the dense matrix, the
// independent oracle for the basis-change measurement path.
func denseExpectation(h *Hamiltonian, s *statevec.State) float64 {
	m := h.Dense()
	dim := s.Dim
	var e complex128
	for i := 0; i < dim; i++ {
		var hv complex128
		for j := 0; j < dim; j++ {
			hv += m[i][j] * complex(s.Re[j], s.Im[j])
		}
		e += complex(s.Re[i], -s.Im[i]) * hv
	}
	return real(e)
}

func TestExpectationMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := &Hamiltonian{N: 4}
	h.Add(0.5, "IIII")
	h.Add(-0.3, "ZIII")
	h.Add(0.7, "XZIY")
	h.Add(0.2, "YYXX")
	h.Add(-1.1, "IXIZ")
	for trial := 0; trial < 10; trial++ {
		s := randomState(rng, 4)
		got := h.Expectation(s)
		want := denseExpectation(h, s)
		if math.Abs(got-want) > 1e-10 {
			t.Fatalf("trial %d: measured %g, dense says %g", trial, got, want)
		}
	}
}

func TestExpectationDoesNotMutateState(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := randomState(rng, 4)
	c := s.Clone()
	H2().Expectation(s)
	if s.MaxAbsDiff(c) != 0 {
		t.Fatal("Expectation mutated the input state")
	}
}

func TestSimpleEigenstates(t *testing.T) {
	h := &Hamiltonian{N: 2}
	h.Add(1.0, "ZI")
	s := statevec.New(2) // |00>
	if e := h.Expectation(s); math.Abs(e-1) > 1e-12 {
		t.Fatalf("<00|Z0|00> = %g", e)
	}
	apply(s, gate.NewX(0))
	if e := h.Expectation(s); math.Abs(e+1) > 1e-12 {
		t.Fatalf("<01|Z0|01> = %g", e)
	}
	hx := &Hamiltonian{N: 1}
	hx.Add(2.0, "X")
	p := statevec.New(1)
	apply(p, gate.NewH(0)) // |+> is the +1 eigenstate of X
	if e := hx.Expectation(p); math.Abs(e-2) > 1e-12 {
		t.Fatalf("<+|2X|+> = %g", e)
	}
}

func TestGroundEnergyOnKnownSystem(t *testing.T) {
	// Single-qubit H = Z: ground energy -1.
	h := &Hamiltonian{N: 1}
	h.Add(1, "Z")
	if e := h.GroundEnergy(); math.Abs(e+1) > 1e-6 {
		t.Fatalf("ground of Z = %g", e)
	}
	// Two-qubit Heisenberg-like: H = XX + YY + ZZ has ground -3 (singlet).
	hh := &Hamiltonian{N: 2}
	hh.Add(1, "XX")
	hh.Add(1, "YY")
	hh.Add(1, "ZZ")
	if e := hh.GroundEnergy(); math.Abs(e+3) > 1e-6 {
		t.Fatalf("ground of Heisenberg pair = %g", e)
	}
}

func TestH2GroundEnergy(t *testing.T) {
	e := H2().GroundEnergy()
	if math.Abs(e-H2Reference) > 5e-3 {
		t.Fatalf("H2 ground energy %g, want about %g", e, H2Reference)
	}
}

func TestH2HartreeFockEnergy(t *testing.T) {
	// The HF reference |0011> (occupied low orbitals) must sit above the
	// ground state but in the right region (~ -1.117 Ha).
	s := statevec.New(4)
	apply(s, gate.NewX(0))
	apply(s, gate.NewX(1))
	e := H2().Expectation(s)
	if e < -1.137 || e > -1.05 {
		t.Fatalf("HF energy %g out of the expected band", e)
	}
	if e <= H2().GroundEnergy() {
		t.Fatal("HF energy below ground energy")
	}
}

func TestAddValidatesLabels(t *testing.T) {
	h := &Hamiltonian{N: 2}
	for _, bad := range []string{"Z", "ZZZ", "QA"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("label %q accepted", bad)
				}
			}()
			h.Add(1, bad)
		}()
	}
}

func TestOneTermExpectationBellPair(t *testing.T) {
	// On a Bell pair <ZZ> = <XX> = 1, <YY> = -1 and <ZI> = 0.
	s := statevec.New(2)
	apply(s, gate.NewH(0))
	apply(s, gate.NewCX(0, 1))
	for _, c := range []struct {
		label string
		want  float64
	}{{"ZZ", 1}, {"XX", 1}, {"YY", -1}, {"ZI", 0}} {
		h := &Hamiltonian{N: 2}
		h.Add(1, c.label)
		if e := h.Expectation(s); math.Abs(e-c.want) > 1e-12 {
			t.Fatalf("<%s> = %g, want %g", c.label, e, c.want)
		}
	}
}

// randomHamiltonian draws a seeded n-qubit Hamiltonian covering the
// shapes the one expectation pass must get right: all-X, all-Y and all-Z
// strings, odd and even Y counts, weight-n and single-qubit terms, and
// several terms per X mask (each random string also appears with X and Y
// swapped on one qubit, which keeps its X mask and flips its Y parity).
func randomHamiltonian(rng *rand.Rand, n int) *Hamiltonian {
	h := &Hamiltonian{N: n}
	label := func(f func(q int) byte) string {
		b := make([]byte, n)
		for q := range b {
			b[q] = f(q)
		}
		return string(b)
	}
	h.Add(rng.NormFloat64(), label(func(int) byte { return 'I' }))
	for _, op := range []byte("XYZ") {
		h.Add(rng.NormFloat64(), label(func(int) byte { return op }))
		single := rng.Intn(n)
		h.Add(rng.NormFloat64(), label(func(q int) byte {
			if q == single {
				return op
			}
			return 'I'
		}))
	}
	for k := 0; k < 3*n; k++ {
		ops := []byte(label(func(int) byte { return "IXYZ"[rng.Intn(4)] }))
		h.Add(rng.NormFloat64(), string(ops))
		for q, o := range ops {
			if o == 'X' || o == 'Y' {
				ops[q] = 'X' + 'Y' - o
				h.Add(rng.NormFloat64(), string(ops))
				break
			}
		}
	}
	return h
}

func TestExpPauliGroupMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for n := 1; n <= 8; n++ {
		h := randomHamiltonian(rng, n)
		for trial := 0; trial < 3; trial++ {
			s := randomState(rng, n)
			if got, want := h.Expectation(s), denseExpectation(h, s); math.Abs(got-want) > 1e-12 {
				t.Fatalf("n=%d trial %d: <H> = %.17g, dense says %.17g", n, trial, got, want)
			}
			// And term by term, straight through the statevec body.
			for i, term := range h.Terms {
				x, z := h.masks(i)
				var got [1]float64
				s.ExpPauliGroup(x, []uint64{z}, got[:])
				one := &Hamiltonian{N: n, Terms: []Term{{Coeff: 1, Paulis: term.Paulis}}}
				if want := denseExpectation(one, s); math.Abs(got[0]-want) > 1e-12 {
					t.Fatalf("n=%d term %d %v: %.17g, dense says %.17g", n, i, term.Paulis, got[0], want)
				}
			}
		}
	}
}

// heisenberg is the open n-qubit Heisenberg chain, XX + YY + ZZ on every
// bond: 3(n-1) terms over n distinct X masks (one per bond, and all-Z).
func heisenberg(n int) *Hamiltonian {
	h := &Hamiltonian{N: n}
	for q := 0; q+1 < n; q++ {
		for _, op := range []string{"XX", "YY", "ZZ"} {
			label := []byte(strings.Repeat("I", n))
			copy(label[q:], op)
			h.Add(1, string(label))
		}
	}
	return h
}

func TestExpectationAllocatesNoState(t *testing.T) {
	const n = 16
	h := heisenberg(n)
	s := randomState(rand.New(rand.NewSource(16)), n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.Expectation(s)
	runtime.ReadMemStats(&after)
	if d, state := after.TotalAlloc-before.TotalAlloc, uint64(16)<<n; d >= state {
		t.Fatalf("Expectation allocated %d bytes, a state is %d", d, state)
	}
}

func TestExpectationDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := H2()
	s := randomState(rng, 4)
	want := math.Float64bits(h.Expectation(s))
	for i := 0; i < 1000; i++ {
		if got := math.Float64bits(h.Expectation(s)); got != want {
			t.Fatalf("call %d: %v, first call %v", i, math.Float64frombits(got), math.Float64frombits(want))
		}
	}
}

func TestZHamiltonianExpectationBits(t *testing.T) {
	// An all-Z Hamiltonian is one x == 0 pass, summed c_k <Z_k> in Terms
	// order: bit-equal to reading each term with the index-order loop.
	rng := rand.New(rand.NewSource(43))
	h := &Hamiltonian{N: 6}
	h.Add(0.25, "IIIIII")
	for k := 0; k < 20; k++ {
		b := make([]byte, 6)
		for q := range b {
			b[q] = "IZ"[rng.Intn(2)]
		}
		h.Add(rng.NormFloat64(), string(b))
	}
	s := randomState(rng, 6)
	var want float64
	for i, term := range h.Terms {
		if len(term.Paulis) == 0 {
			want += term.Coeff
			continue
		}
		_, mask := h.masks(i)
		var z float64
		for j := 0; j < s.Dim; j++ {
			p := s.Re[j]*s.Re[j] + s.Im[j]*s.Im[j]
			if bits.OnesCount64(uint64(j)&mask)&1 == 0 {
				z += p
			} else {
				z -= p
			}
		}
		want += term.Coeff * z
	}
	if got := h.Expectation(s); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("all-Z <H> = %v, per-term loop %v", got, want)
	}
}

func TestTermNamingAQubitTwicePanics(t *testing.T) {
	h := &Hamiltonian{N: 2, Terms: []Term{
		{Coeff: 1, Paulis: []circuit.PauliTerm{{P: circuit.PauliZ, Q: 1}}},
		{Coeff: 1, Paulis: []circuit.PauliTerm{{P: circuit.PauliX, Q: 0}, {P: circuit.PauliX, Q: 0}}},
	}}
	for name, f := range map[string]func(){
		"Expectation":    func() { h.Expectation(statevec.New(2)) },
		"GroupCommuting": func() { h.GroupCommuting() },
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), "term 1") {
					t.Errorf("%s: recovered %v, want a panic naming term 1", name, r)
				}
			}()
			f()
		}()
	}
}

func TestGroupingReducesH2Measurements(t *testing.T) {
	h := H2()
	groups, constant := h.GroupCommuting()
	// H2 has 14 non-identity terms; the 10 Z-type terms are mutually QWC,
	// and the 4 XXYY-type terms split among themselves: expect far fewer
	// groups than terms (the textbook answer is 5).
	if len(groups) >= 14 {
		t.Fatalf("grouping did not reduce: %d groups", len(groups))
	}
	if len(groups) != 5 {
		t.Logf("note: %d QWC groups (textbook greedy gives 5)", len(groups))
	}
	if math.Abs(constant-(-0.81261+0.71373)) > 1e-12 {
		t.Fatalf("identity constant %g", constant)
	}
	total := 0
	for _, g := range groups {
		total += len(g.Terms)
	}
	if total != 14 {
		t.Fatalf("grouped %d terms, want 14", total)
	}
}

func TestGroupingQWCInvariant(t *testing.T) {
	// Within every group, any two terms must agree on shared qubits.
	h := &Hamiltonian{N: 6}
	h.Add(1, "XXIIII")
	h.Add(1, "XIXIII")
	h.Add(1, "YYIIII")
	h.Add(1, "IIZZII")
	h.Add(1, "ZZIIII")
	h.Add(1, "IIIIXY")
	h.Add(0.5, "IIIIII")
	groups, _ := h.GroupCommuting()
	for gi, g := range groups {
		for i := 0; i < len(g.Terms); i++ {
			for j := i + 1; j < len(g.Terms); j++ {
				opsI := map[int]byte{}
				for _, p := range g.Terms[i].Paulis {
					opsI[p.Q] = byte(p.P)
				}
				for _, p := range g.Terms[j].Paulis {
					if b, ok := opsI[p.Q]; ok && b != byte(p.P) {
						t.Fatalf("group %d holds non-commuting terms", gi)
					}
				}
			}
		}
	}
}

func TestGroupingBasisIsPerQubit(t *testing.T) {
	h := H2()
	groups, _ := h.GroupCommuting()
	for gi, g := range groups {
		if len(g.Basis) != h.N {
			t.Fatalf("group %d: basis over %d qubits", gi, len(g.Basis))
		}
		want := make([]circuit.Pauli, h.N)
		for q := range want {
			want[q] = circuit.PauliI
		}
		for _, term := range g.Terms {
			for _, p := range term.Paulis {
				want[p.Q] = p.P
			}
		}
		for q := range want {
			if g.Basis[q] != want[q] {
				t.Fatalf("group %d qubit %d: basis %c, terms need %c", gi, q, g.Basis[q], want[q])
			}
		}
	}
}

func TestSampleExpectationDeterministic(t *testing.T) {
	// Rotations run in qubit order, so one seed gives one estimate.
	s := statevecNewHF()
	want := H2().SampleExpectation(s, 64, rand.New(rand.NewSource(9)))
	for i := 0; i < 50; i++ {
		if got := H2().SampleExpectation(s, 64, rand.New(rand.NewSource(9))); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: %v, first call %v", i, got, want)
		}
	}
}

func TestSampleExpectationUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	h := H2()
	s := statevecNewHF()
	exact := h.Expectation(s)
	// Average many independent shot estimates: must approach the exact
	// value with shrinking spread.
	var sum float64
	const reps = 60
	for i := 0; i < reps; i++ {
		sum += h.SampleExpectation(s, 256, rng)
	}
	mean := sum / reps
	if math.Abs(mean-exact) > 0.02 {
		t.Fatalf("sampled mean %g vs exact %g", mean, exact)
	}
	// More shots, tighter single-estimate error (statistical check).
	lo := math.Abs(h.SampleExpectation(s, 16, rng) - exact)
	var hiErr float64
	for i := 0; i < 5; i++ {
		hiErr += math.Abs(h.SampleExpectation(s, 8192, rng) - exact)
	}
	hiErr /= 5
	if hiErr > 0.08 {
		t.Fatalf("8192-shot error %g too large", hiErr)
	}
	_ = lo
}

// statevecNewHF prepares the Hartree-Fock state |0011> for H2.
func statevecNewHF() *statevec.State {
	s := statevec.New(4)
	apply(s, gate.NewX(0))
	apply(s, gate.NewX(1))
	apply(s, gate.NewRY(0.3, 2)) // mix in some excitation so X/Y terms contribute
	apply(s, gate.NewCX(2, 3))
	return s
}

var energySink float64

// BenchmarkExpectation is the exact energy on H2 and on the Heisenberg
// chain at n = 16 and 20 (3(n-1) terms, n X masks), per call.
func BenchmarkExpectation(b *testing.B) {
	for _, c := range []struct {
		name string
		h    *Hamiltonian
	}{{"h2", H2()}, {"heisenberg16", heisenberg(16)}, {"heisenberg20", heisenberg(20)}} {
		s := randomState(rand.New(rand.NewSource(1)), c.h.N)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				energySink = c.h.Expectation(s)
			}
		})
	}
}
