package qir

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/gate"
)

// newSim is an n-qubit simulator on single.
func newSim(tb testing.TB, n int, seed int64) *Simulator {
	tb.Helper()
	s, err := NewSimulator("single", 1, n, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// randomize writes a random normalized state where the program stands.
func randomize(rng *rand.Rand, s *Simulator) {
	st := s.State()
	var norm float64
	for i := 0; i < st.Dim; i++ {
		st.Re[i] = rng.NormFloat64()
		st.Im[i] = rng.NormFloat64()
		norm += st.Re[i]*st.Re[i] + st.Im[i]*st.Im[i]
	}
	norm = math.Sqrt(norm)
	for i := 0; i < st.Dim; i++ {
		st.Re[i] /= norm
		st.Im[i] /= norm
	}
}

func TestElementaryVerbsMatchKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type vcase struct {
		call func(s *Simulator)
		kind gate.Kind
	}
	cases := []vcase{
		{func(s *Simulator) { s.X(2) }, gate.X},
		{func(s *Simulator) { s.Y(2) }, gate.Y},
		{func(s *Simulator) { s.Z(2) }, gate.Z},
		{func(s *Simulator) { s.H(2) }, gate.H},
		{func(s *Simulator) { s.S(2) }, gate.S},
		{func(s *Simulator) { s.T(2) }, gate.T},
		{func(s *Simulator) { s.AdjointS(2) }, gate.SDG},
		{func(s *Simulator) { s.AdjointT(2) }, gate.TDG},
	}
	for _, c := range cases {
		s := newSim(t, 4, 0)
		randomize(rng, s)
		want := s.State().Clone()
		c.call(s)
		g := gate.New(c.kind, []int{2})
		want.Apply(&g)
		if d := s.State().MaxAbsDiff(want); d > 1e-12 {
			t.Fatalf("%s verb deviates by %g", c.kind, d)
		}
	}
}

func TestRVerb(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, axis := range []Pauli{PauliX, PauliY, PauliZ} {
		s := newSim(t, 3, 0)
		randomize(rng, s)
		want := s.State().Clone()
		theta := 0.873
		s.R(axis, theta, 1)
		var g gate.Gate
		switch axis {
		case PauliX:
			g = gate.NewRX(theta, 1)
		case PauliY:
			g = gate.NewRY(theta, 1)
		case PauliZ:
			g = gate.NewRZ(theta, 1)
		}
		want.Apply(&g)
		if d := s.State().MaxAbsDiff(want); d > 1e-12 {
			t.Fatalf("R(%s) deviates by %g", string(axis), d)
		}
	}
	// R about the identity is a global phase exp(-i theta/2).
	s := newSim(t, 2, 0)
	randomize(rng, s)
	want := s.State().Clone()
	s.R(PauliI, 1.2, 0)
	gp := gate.NewGPhase(-0.6)
	want.Apply(&gp)
	if d := s.State().MaxAbsDiff(want); d > 1e-12 {
		t.Fatalf("R(I) deviates by %g", d)
	}
}

func TestControlledVerbsAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type ccase struct {
		name string
		call func(s *Simulator, ctrls []int, q int)
		base gate.Gate
	}
	cases := []ccase{
		{"CX", func(s *Simulator, c []int, q int) { s.ControlledX(c, q) }, gate.NewX(0)},
		{"CY", func(s *Simulator, c []int, q int) { s.ControlledY(c, q) }, gate.NewY(0)},
		{"CZ", func(s *Simulator, c []int, q int) { s.ControlledZ(c, q) }, gate.NewZ(0)},
		{"CH", func(s *Simulator, c []int, q int) { s.ControlledH(c, q) }, gate.NewH(0)},
		{"CS", func(s *Simulator, c []int, q int) { s.ControlledS(c, q) }, gate.NewS(0)},
		{"CT", func(s *Simulator, c []int, q int) { s.ControlledT(c, q) }, gate.NewT(0)},
		{"CSdg", func(s *Simulator, c []int, q int) { s.ControlledAdjointS(c, q) }, gate.NewSDG(0)},
		{"CTdg", func(s *Simulator, c []int, q int) { s.ControlledAdjointT(c, q) }, gate.NewTDG(0)},
	}
	for _, cse := range cases {
		for _, nc := range []int{1, 2, 3} {
			s := newSim(t, 5, 0)
			randomize(rng, s)
			want := s.State().Clone()
			perm := rng.Perm(5)
			ctrls := perm[:nc]
			tgt := perm[nc]
			cse.call(s, ctrls, tgt)
			full := denseControlled(gate.Unitary(cse.base), 5, ctrls, tgt)
			full.Apply(want.Re, want.Im)
			if d := s.State().MaxAbsDiff(want); d > 1e-11 {
				t.Fatalf("%s with %d controls deviates by %g", cse.name, nc, d)
			}
		}
	}
}

func denseControlled(u gate.Matrix, n int, ctrls []int, t int) gate.Matrix {
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

func TestControlledR(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, axis := range []Pauli{PauliX, PauliY, PauliZ} {
		s := newSim(t, 4, 0)
		randomize(rng, s)
		want := s.State().Clone()
		s.ControlledR([]int{0, 3}, axis, 0.6, 1)
		full := denseControlled(gate.Unitary(rotation(axis, 0.6, 0)), 4, []int{0, 3}, 1)
		full.Apply(want.Re, want.Im)
		if d := s.State().MaxAbsDiff(want); d > 1e-11 {
			t.Fatalf("ControlledR(%s) deviates by %g", string(axis), d)
		}
	}
	// Controlled R(I) = controlled global phase on the control subspace.
	s := newSim(t, 3, 0)
	randomize(rng, s)
	want := s.State().Clone()
	s.ControlledR([]int{0, 2}, PauliI, 1.0, 1)
	phase := cmplx.Exp(complex(0, -0.5))
	for i := 0; i < want.Dim; i++ {
		if i&0b101 == 0b101 {
			a := complex(want.Re[i], want.Im[i]) * phase
			want.Re[i], want.Im[i] = real(a), imag(a)
		}
	}
	if d := s.State().MaxAbsDiff(want); d > 1e-12 {
		t.Fatalf("ControlledR(I) deviates by %g", d)
	}
}

func TestExpIsPauliExponential(t *testing.T) {
	// e^{i theta P} = cos(theta) I + i sin(theta) P, verified densely and
	// against the window (circuit.ExpPauli) applied gate by gate, which the
	// verb appends and the flush runs as one pass.
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		paulis []Pauli
		qubits []int
	}{
		{[]Pauli{PauliZ}, []int{1}},
		{[]Pauli{PauliX, PauliY}, []int{0, 2}},
		{[]Pauli{PauliX, PauliI, PauliZ}, []int{0, 1, 3}},
		{[]Pauli{PauliY, PauliY, PauliX, PauliZ}, []int{3, 1, 0, 2}},
	}
	for _, cse := range cases {
		theta := rng.Float64()*2 - 1
		s := newSim(t, 4, 0)
		randomize(rng, s)
		want := s.State().Clone()
		lowered := want.Clone()
		s.Exp(cse.paulis, theta, cse.qubits)
		window := new(circuit.Circuit).ExpPauli(-2*theta, pauliTerms(cse.paulis, cse.qubits, 4)).Ops
		// The flush runs the window as one gadget step, a weight-1 window
		// as one fused gate: one sweep either way.
		gadgets := 0
		if len(cse.qubits)-strings.Count(string(cse.paulis), "I") > 1 {
			gadgets = 1
		}
		if res := s.flush(); res.SV.Sweeps != 1 || res.Compile.Gadgets != gadgets {
			t.Fatalf("Exp(%v) runs %d gadgets in %d sweeps, want %d in one", cse.paulis, res.Compile.Gadgets, res.SV.Sweeps, gadgets)
		}
		for i := range window {
			lowered.Apply(&window[i].G)
		}
		if d := s.State().MaxAbsDiff(lowered); d > 1e-12 {
			t.Fatalf("Exp(%v, %g) deviates from the lowered window by %g", cse.paulis, theta, d)
		}

		p := pauliDense(4, cse.paulis, cse.qubits)
		dim := 1 << 4
		u := gate.NewMatrix(dim)
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				v := complex(0, math.Sin(theta)) * p.At(i, j)
				if i == j {
					v += complex(math.Cos(theta), 0)
				}
				u.Set(i, j, v)
			}
		}
		u.Apply(want.Re, want.Im)
		if d := s.State().MaxAbsDiff(want); d > 1e-12 {
			t.Fatalf("Exp(%v, %g) deviates by %g", cse.paulis, theta, d)
		}
	}
}

func pauliDense(n int, paulis []Pauli, qubits []int) gate.Matrix {
	m := gate.Identity(1 << uint(n))
	for i, p := range paulis {
		var sub gate.Matrix
		switch p {
		case PauliI:
			continue
		case PauliX:
			sub = gate.Unitary(gate.NewX(0))
		case PauliY:
			sub = gate.Unitary(gate.NewY(0))
		case PauliZ:
			sub = gate.Unitary(gate.NewZ(0))
		}
		m = sub.Embed(n, []int{qubits[i]}).Mul(m)
	}
	return m
}

func TestControlledExp(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	paulis := []Pauli{PauliX, PauliZ}
	qubits := []int{1, 3}
	theta := 0.77
	s := newSim(t, 5, 0)
	randomize(rng, s)
	want := s.State().Clone()
	s.ControlledExp([]int{0, 4}, paulis, theta, qubits)

	// Dense controlled exponential.
	p := pauliDense(5, paulis, qubits)
	dim := 1 << 5
	u := gate.Identity(dim)
	cmask := 0b10001
	for i := 0; i < dim; i++ {
		if i&cmask != cmask {
			continue
		}
		for j := 0; j < dim; j++ {
			if j&cmask != cmask {
				continue
			}
			v := complex(0, math.Sin(theta)) * p.At(i, j)
			if i == j {
				v = complex(math.Cos(theta), 0) + v
			}
			u.Set(i, j, v)
		}
	}
	u.Apply(want.Re, want.Im)
	if d := s.State().MaxAbsDiff(want); d > 1e-10 {
		t.Fatalf("ControlledExp deviates by %g", d)
	}
	// With a control held at 0 the operation must be the identity.
	s2 := newSim(t, 3, 0)
	randomize(rng, s2)
	before := s2.State().Clone()
	s2.ControlledExp([]int{2}, []Pauli{PauliY}, 0.5, []int{0})
	// Zero out the control=1 half for comparison: control qubit 2 of a
	// random state is not |0>, so instead verify on a fresh |0> state.
	_ = before
	s3 := newSim(t, 3, 0)
	s3.H(0)
	ref := s3.State().Clone()
	s3.ControlledExp([]int{2}, []Pauli{PauliY}, 0.5, []int{0})
	if d := s3.State().MaxAbsDiff(ref); d > 1e-12 {
		t.Fatalf("ControlledExp acted with control at |0>: %g", d)
	}
}

func TestExpAllIdentityIsGlobalPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := newSim(t, 2, 0)
	randomize(rng, s)
	want := s.State().Clone()
	s.Exp([]Pauli{PauliI, PauliI}, 0.9, []int{0, 1})
	gp := gate.NewGPhase(0.9)
	want.Apply(&gp)
	if d := s.State().MaxAbsDiff(want); d > 1e-12 {
		t.Fatalf("Exp(II) deviates by %g", d)
	}
}

func TestExpRejectsARepeatedQubit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp naming qubit 1 twice was accepted")
		}
	}()
	newSim(t, 2, 0).Exp([]Pauli{PauliX, PauliZ}, 0.3, []int{1, 1})
}

func TestMeasurementAndReset(t *testing.T) {
	ones := 0
	const trials = 4000
	for seed := int64(0); seed < trials; seed++ {
		s := newSim(t, 2, seed)
		s.H(0)
		ones += s.M(0)
	}
	f := float64(ones) / trials
	if math.Abs(f-0.5) > 0.03 {
		t.Fatalf("M on |+> frequency %g", f)
	}
	s := newSim(t, 2, 1)
	s.X(1)
	s.Reset(1)
	if p := s.Probability(1); p > 1e-12 {
		t.Fatalf("Reset left P(1) = %g", p)
	}
}

func TestQIRTeleportProgram(t *testing.T) {
	// A small Q#-style program driven through the QIR verbs end to end:
	// teleport RY(0.9)|0> from qubit 0 to qubit 2 with measurements and
	// classically controlled corrections.
	want := math.Sin(0.45) * math.Sin(0.45)
	got := 0.0
	const trials = 2000
	for seed := int64(0); seed < trials; seed++ {
		s := newSim(t, 3, seed)
		s.R(PauliY, 0.9, 0)
		s.H(1)
		s.ControlledX([]int{1}, 2)
		s.ControlledX([]int{0}, 1)
		s.H(0)
		m1 := s.M(1)
		m0 := s.M(0)
		if m1 == 1 {
			s.X(2)
		}
		if m0 == 1 {
			s.Z(2)
		}
		got += s.Probability(2)
	}
	got /= trials
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("teleported P(1) = %g, want %g", got, want)
	}
}

// TestGoldenOutcomes: the outcomes of seeds 0–63 of the teleport program
// and of M on |+>, as the immediate-mode simulator drew them — a flush
// replays the draws of the measurements and resets before it, so each M
// takes the seed stream's next variate, as a per-call draw did.
func TestGoldenOutcomes(t *testing.T) {
	const (
		teleport = "01 00 11 00 11 00 10 01 10 11 01 10 01 10 00 11 00 01 10 00 11 00 11 00 10 01 10 11 00 10 01 10 " +
			"01 10 00 01 10 01 11 00 11 00 11 10 00 11 00 11 01 10 01 10 01 01 10 01 10 00 11 00 01 10 00 11"
		plus = "0010101011010101001010101011010101001010101101010101001010100101"
	)
	var gotTele []string
	var gotPlus string
	for seed := int64(0); seed < 64; seed++ {
		s := newSim(t, 3, seed)
		s.R(PauliY, 0.9, 0)
		s.H(1)
		s.ControlledX([]int{1}, 2)
		s.ControlledX([]int{0}, 1)
		s.H(0)
		m1 := s.M(1)
		m0 := s.M(0)
		gotTele = append(gotTele, fmt.Sprintf("%d%d", m1, m0))
		p := newSim(t, 2, seed)
		p.H(0)
		gotPlus += fmt.Sprint(p.M(0))
	}
	if got := strings.Join(gotTele, " "); got != teleport {
		t.Errorf("teleport outcomes\n got %s\nwant %s", got, teleport)
	}
	if gotPlus != plus {
		t.Errorf("M on |+>\n got %s\nwant %s", gotPlus, plus)
	}
}

// TestBadOperandPanicsAtTheVerb: an operand outside the register (a
// negative one too) or named twice panics at the call, naming the verb,
// and leaves nothing pending.
func TestBadOperandPanicsAtTheVerb(t *testing.T) {
	for _, c := range []struct {
		call func(s *Simulator)
		want []string
	}{
		{func(s *Simulator) { s.ControlledX([]int{1}, 1) }, []string{"qir: ControlledX: ", "duplicate qubit operand 1"}},
		{func(s *Simulator) { s.ControlledZ([]int{3}, 0) }, []string{"qir: ControlledZ: ", "qubit 3 outside register of size 2"}},
		{func(s *Simulator) { s.ControlledH([]int{0, 0}, 1) }, []string{"qir: ControlledH: ", "duplicate qubit operand 0"}},
		{func(s *Simulator) { s.Exp([]Pauli{PauliI, PauliX}, 0.3, []int{-1, 0}) }, []string{"qir: Exp: ", "qubit -1 outside register of size 2"}},
		{func(s *Simulator) { s.ControlledExp([]int{1}, []Pauli{PauliI}, 0.3, []int{-1}) }, []string{"qir: ControlledExp: ", "qubit -1 outside register of size 2"}},
	} {
		s := newSim(t, 2, 0)
		s.H(0)
		want := s.State().Clone()
		s.X(1)
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			c.call(s)
			return
		}()
		for _, w := range c.want {
			if !strings.Contains(msg, w) {
				t.Errorf("panic %q, want it to contain %q", msg, w)
			}
		}
		s.X(1)
		if d := s.State().MaxAbsDiff(want); d != 0 {
			t.Errorf("%s: the rejected verb left gates pending (state moved by %g)", c.want[0], d)
		}
	}
}
