package circuit

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"svsim/internal/gate"
)

func TestBuilderAppendsEveryGate(t *testing.T) {
	c := New("all", 6)
	c.H(0).X(1).Y(2).Z(3).S(4).Sdg(5).T(0).ID(2)
	c.RX(0.1, 0).RY(0.2, 1).RZ(0.3, 2).U1(0.4, 3).U2(0.5, 0.6, 4).U3(0.7, 0.8, 0.9, 5)
	c.CX(0, 1).CY(1, 2).CZ(2, 3).CH(3, 4).Swap(4, 5)
	c.CCX(0, 1, 2)
	c.CRX(0.1, 0, 1).CRY(0.2, 1, 2).CRZ(0.3, 2, 3).CU1(0.4, 3, 4).CU3(0.5, 0.6, 0.7, 4, 5)
	c.RXX(0.8, 0, 1).RZZ(0.9, 2, 3)
	c.C3X(0, 1, 2, 3).C4X(0, 1, 2, 3, 4)
	c.Barrier()
	want := 8 + 6 + 5 + 1 + 5 + 2 + 2 + 1
	if c.NumGates() != want {
		t.Fatalf("builder appended %d ops, want %d", c.NumGates(), want)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureGrowsClassicalRegister(t *testing.T) {
	c := New("m", 3)
	if c.NumClbits != 0 {
		t.Fatal("fresh circuit has clbits")
	}
	c.Measure(0, 5)
	if c.NumClbits != 6 {
		t.Fatalf("clbits = %d, want 6", c.NumClbits)
	}
	c.MeasureAll()
	if c.NumGates() != 4 {
		t.Fatalf("ops = %d", c.NumGates())
	}
}

func TestValidateCatchesOutOfRange(t *testing.T) {
	c := New("bad", 2)
	c.Append(gate.NewH(5))
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "outside register") {
		t.Fatalf("Validate: %v", err)
	}
	neg := New("neg", 2)
	neg.Ops = append(neg.Ops, Op{G: gate.Gate{Kind: gate.H, NQ: 1, Qubits: [gate.MaxOperands]int32{-1}}})
	if err := neg.Validate(); err == nil || !strings.Contains(err.Error(), "qubit -1 outside register of size 2") {
		t.Fatalf("Validate negative qubit: %v", err)
	}
	c2 := New("badc", 2)
	c2.Ops = append(c2.Ops, Op{G: gate.NewMeasure(0, 3)})
	if err := c2.Validate(); err == nil || !strings.Contains(err.Error(), "classical bit") {
		t.Fatalf("Validate cbit: %v", err)
	}
	c3 := New("badcond", 2)
	c3.AppendCond(gate.NewX(0), Condition{Offset: 0, Width: 3, Value: 1})
	if err := c3.Validate(); err == nil || !strings.Contains(err.Error(), "condition") {
		t.Fatalf("Validate cond: %v", err)
	}
}

func TestStripNonUnitary(t *testing.T) {
	c := New("mix", 2)
	c.H(0).Measure(0, 0).Barrier().Reset(1).CX(0, 1)
	c.AppendCond(gate.NewZ(1), Condition{Offset: 0, Width: 1, Value: 1})
	s := c.StripNonUnitary()
	if s.NumGates() != 2 {
		t.Fatalf("stripped to %d ops", s.NumGates())
	}
	if !s.UnitaryOnly() {
		t.Fatal("strip left non-unitary ops")
	}
	if c.UnitaryOnly() {
		t.Fatal("original misreported as unitary")
	}
}

func TestGatesPanicsOnConditions(t *testing.T) {
	c := New("cond", 1)
	c.AppendCond(gate.NewX(0), Condition{Width: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("Gates() should panic with conditions present")
		}
	}()
	c.Gates()
}

func TestHistogramAndCounts(t *testing.T) {
	c := New("h", 3)
	c.H(0).H(1).CX(0, 1).CX(1, 2).T(0)
	h := c.GateHistogram()
	if h[gate.H] != 2 || h[gate.CX] != 2 || h[gate.T] != 1 {
		t.Fatalf("histogram: %v", h)
	}
	if c.CountKind(gate.CX) != 2 {
		t.Fatal("CountKind")
	}
	if !strings.Contains(c.Summary(), "cx=2") {
		t.Fatalf("summary: %s", c.Summary())
	}
}

func TestParsePauliString(t *testing.T) {
	ts, err := ParsePauliString("IXZY")
	if err != nil {
		t.Fatal(err)
	}
	want := []PauliTerm{{PauliX, 1}, {PauliZ, 2}, {PauliY, 3}}
	if len(ts) != len(want) {
		t.Fatalf("terms: %v", ts)
	}
	for i := range want {
		if ts[i] != want[i] {
			t.Fatalf("term %d: %v, want %v", i, ts[i], want[i])
		}
	}
	if _, err := ParsePauliString("XQ"); err == nil {
		t.Fatal("bad label accepted")
	}
	if ts, _ := ParsePauliString("III"); len(ts) != 0 {
		t.Fatal("identity factors should drop")
	}
}

func TestPauliMasks(t *testing.T) {
	ts, _ := ParsePauliString("IXZY")
	x, z, err := PauliMasks(ts)
	if err != nil || x != 0b1010 || z != 0b1100 {
		t.Fatalf("IXZY: x=%b z=%b err=%v, want x=1010 z=1100", x, z, err)
	}
	if x, z, err := PauliMasks(nil); err != nil || x|z != 0 {
		t.Fatalf("empty string: x=%b z=%b err=%v", x, z, err)
	}
	for _, bad := range [][]PauliTerm{
		{{PauliX, 0}, {PauliZ, 0}},
		{{PauliY, 3}, {PauliY, 3}},
		{{PauliZ, 64}},
		{{PauliX, -1}},
		{{PauliI, 2}},
	} {
		if _, _, err := PauliMasks(bad); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}

func TestExpPauliGateCountMatchesEmission(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	letters := []Pauli{PauliX, PauliY, PauliZ}
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(5)
		var terms []PauliTerm
		var nx, ny, nz int
		perm := rng.Perm(8)
		for i := 0; i < n; i++ {
			p := letters[rng.Intn(3)]
			switch p {
			case PauliX:
				nx++
			case PauliY:
				ny++
			default:
				nz++
			}
			terms = append(terms, PauliTerm{p, perm[i]})
		}
		c := New("exp", 8)
		c.ExpPauli(0.37, terms)
		if got, want := c.NumGates(), ExpPauliGateCount(nx, ny, nz); got != want {
			t.Fatalf("emitted %d gates, count model says %d (nx=%d ny=%d nz=%d)",
				got, want, nx, ny, nz)
		}
	}
	// Empty string is a global phase.
	c := New("gp", 2)
	c.ExpPauli(1.0, nil)
	if c.NumGates() != 1 || c.Ops[0].G.Kind != gate.GPHASE {
		t.Fatalf("empty ExpPauli: %v", c.Ops)
	}
	if ExpPauliGateCount(0, 0, 0) != 1 {
		t.Fatal("count for empty string")
	}
}

func TestExpPauliSelfInverseQuick(t *testing.T) {
	// Property: ExpPauli(theta) followed by ExpPauli(-theta) emits a
	// sequence whose product is the identity — verified via the gate
	// matrices (exact, including global phase).
	f := func(seed int64, thetaRaw float64) bool {
		rng := rand.New(rand.NewSource(seed))
		theta := math.Mod(thetaRaw, math.Pi)
		n := 4
		var terms []PauliTerm
		letters := []Pauli{PauliX, PauliY, PauliZ}
		perm := rng.Perm(n)
		k := 1 + rng.Intn(3)
		for i := 0; i < k; i++ {
			terms = append(terms, PauliTerm{letters[rng.Intn(3)], perm[i]})
		}
		c := New("rt", n)
		c.ExpPauli(theta, terms)
		c.ExpPauli(-theta, terms)
		prod := gate.Identity(1 << uint(n))
		for _, g := range c.Gates() {
			pos := make([]int, g.NQ)
			for j := range pos {
				pos[j] = int(g.Qubits[j])
			}
			prod = gate.Unitary(g).Embed(n, pos).Mul(prod)
		}
		return prod.EqualUpTo(gate.Identity(1<<uint(n)), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestConditionCopySemantics(t *testing.T) {
	// AppendCond must copy the condition so callers can reuse the value.
	c := New("cc", 1)
	cond := Condition{Offset: 0, Width: 1, Value: 1}
	c.AppendCond(gate.NewX(0), cond)
	cond.Value = 0
	if c.Ops[0].Cond.Value != 1 {
		t.Fatal("condition aliased caller's value")
	}
}

func TestInverseUndoesCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		c := New("fwd", 5)
		kinds := []gate.Kind{gate.H, gate.T, gate.CX, gate.CCX, gate.RX, gate.CU3, gate.RCCX, gate.SWAP, gate.S, gate.RZZ}
		for i := 0; i < 40; i++ {
			k := kinds[rng.Intn(len(kinds))]
			perm := rng.Perm(5)
			ps := make([]float64, k.NumParams())
			for j := range ps {
				ps[j] = rng.Float64() * 2
			}
			c.Append(gate.New(k, perm[:k.NumQubits()], ps...))
		}
		inv := c.Inverse()
		// Product of all gates (forward then inverse) must be the identity.
		n := c.NumQubits
		prod := gate.Identity(1 << uint(n))
		apply := func(src *Circuit) {
			for _, g := range src.Gates() {
				pos := make([]int, g.NQ)
				for j := range pos {
					pos[j] = int(g.Qubits[j])
				}
				prod = gate.Unitary(g).Embed(n, pos).Mul(prod)
			}
		}
		apply(c)
		apply(inv)
		if !prod.EqualUpTo(gate.Identity(1<<uint(n)), 1e-8) {
			t.Fatalf("trial %d: inverse does not undo the circuit", trial)
		}
	}
}

func TestInversePanicsOnMeasurement(t *testing.T) {
	c := New("m", 1)
	c.Measure(0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Inverse of a measuring circuit should panic")
		}
	}()
	c.Inverse()
}

func TestConcat(t *testing.T) {
	a := New("a", 3)
	a.H(0)
	b := New("b", 3)
	b.CX(0, 1)
	a.Concat(b)
	if a.NumGates() != 2 {
		t.Fatalf("concat gates: %d", a.NumGates())
	}
	big := New("big", 5)
	big.H(4)
	defer func() {
		if recover() == nil {
			t.Fatal("Concat of a larger circuit should panic")
		}
	}()
	New("small", 2).Concat(big)
}

func TestDrawBellCircuit(t *testing.T) {
	c := New("bell", 2)
	c.H(0).CX(0, 1).Measure(0, 0).Measure(1, 1)
	out := Draw(c)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("draw lines: %q", out)
	}
	if !strings.Contains(lines[0], "H") || !strings.Contains(lines[0], "*") ||
		!strings.Contains(lines[0], "M>c0") {
		t.Fatalf("row 0: %q", lines[0])
	}
	if !strings.Contains(lines[1], "X") || !strings.Contains(lines[1], "M>c1") {
		t.Fatalf("row 1: %q", lines[1])
	}
}

func TestDrawSpansAndConditions(t *testing.T) {
	c := New("span", 4)
	c.NumClbits = 1
	c.CX(0, 3) // spans rows 1-2
	c.AppendCond(gate.NewZ(2), Condition{Offset: 0, Width: 1, Value: 1})
	c.Barrier()
	out := Draw(c)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if !strings.Contains(lines[1], "|") || !strings.Contains(lines[2], "|") {
		t.Fatalf("missing span bars:\n%s", out)
	}
	if !strings.Contains(lines[2], "Z?c=1") {
		t.Fatalf("missing condition suffix:\n%s", out)
	}
	// Every row must have equal rendered width.
	for i := 1; i < len(lines); i++ {
		if len(lines[i]) != len(lines[0]) {
			t.Fatalf("ragged rows:\n%s", out)
		}
	}
}

func TestDrawParamsAndSwap(t *testing.T) {
	c := New("p", 2)
	c.RZ(0.5, 0).Swap(0, 1)
	out := Draw(c)
	if !strings.Contains(out, "RZ(0.5)") {
		t.Fatalf("missing parameterized label:\n%s", out)
	}
	if strings.Count(out, "x") < 2 {
		t.Fatalf("missing swap markers:\n%s", out)
	}
}

func TestDepthBasics(t *testing.T) {
	c := New("d", 3)
	c.H(0).H(1).H(2) // one layer
	if d := c.Depth(); d != 1 {
		t.Fatalf("parallel H depth = %d", d)
	}
	c.CX(0, 1) // layer 2
	c.T(2)     // fits layer 2
	if d := c.Depth(); d != 2 {
		t.Fatalf("depth = %d, want 2", d)
	}
	c.CX(1, 2) // layer 3 (depends on both)
	if d := c.Depth(); d != 3 {
		t.Fatalf("depth = %d, want 3", d)
	}
}

func TestDepthBarrierForcesBoundary(t *testing.T) {
	a := New("a", 2)
	a.H(0).Barrier().H(1)
	// Without the barrier the two H's would share a layer.
	if d := a.Depth(); d != 2 {
		t.Fatalf("barrier depth = %d, want 2", d)
	}
	b := New("b", 2)
	b.H(0).H(1)
	if d := b.Depth(); d != 1 {
		t.Fatalf("no-barrier depth = %d", d)
	}
}

func TestParallelismGHZvsParallelH(t *testing.T) {
	ghz := New("ghz", 8)
	ghz.H(0)
	for q := 1; q < 8; q++ {
		ghz.CX(q-1, q)
	}
	flat := New("flat", 8)
	for q := 0; q < 8; q++ {
		flat.H(q)
	}
	if ghz.Parallelism() >= flat.Parallelism() {
		t.Fatalf("sequential GHZ parallelism %g not below flat %g",
			ghz.Parallelism(), flat.Parallelism())
	}
	if flat.Parallelism() != 8 {
		t.Fatalf("flat parallelism = %g", flat.Parallelism())
	}
}
