package fusion

import (
	"math"
	"math/cmplx"
	"math/rand"
	"reflect"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/gate"
	"svsim/internal/qasmbench"
)

// windowUnitary multiplies the ops [lo, hi] of c out densely.
func windowUnitary(c *circuit.Circuit, lo, hi int) gate.Matrix {
	u := gate.Identity(1 << uint(c.NumQubits))
	for i := lo; i <= hi; i++ {
		g := &c.Ops[i].G
		qs := make([]int, g.NQ)
		for k, q := range g.OperandQubits() {
			qs[k] = int(q)
		}
		u = gate.Unitary(*g).Embed(c.NumQubits, qs).Mul(u)
	}
	return u
}

// rotationUnitary is exp(-i theta P / 2) for the string g describes.
func rotationUnitary(n int, g *Gadget, theta float64) gate.Matrix {
	p := gate.Identity(1 << uint(n))
	for q := 0; q < n; q++ {
		var f gate.Gate
		switch x, z := g.X>>uint(q)&1, g.Z>>uint(q)&1; {
		case x == 1 && z == 1:
			f = gate.NewY(0)
		case x == 1:
			f = gate.NewX(0)
		case z == 1:
			f = gate.NewZ(0)
		default:
			continue
		}
		p = gate.Unitary(f).Embed(n, []int{q}).Mul(p)
	}
	c, s := complex(math.Cos(theta/2), 0), complex(0, -math.Sin(theta/2))
	if g.Neg {
		s = -s
	}
	u := gate.NewMatrix(p.N)
	for i := 0; i < p.N; i++ {
		for j := 0; j < p.N; j++ {
			v := s * p.At(i, j)
			if i == j {
				v += c
			}
			u.Set(i, j, v)
		}
	}
	return u
}

// checkGadget compares a marked window with the rotation it claims to be.
func checkGadget(t *testing.T, c *circuit.Circuit, g *Gadget) {
	t.Helper()
	if c.Ops[g.Core].G.Kind != gate.RZ || g.Core-g.First != g.Last-g.Core {
		t.Fatalf("gadget %+v is not centred on an rz", *g)
	}
	want := windowUnitary(c, g.First, g.Last)
	got := rotationUnitary(c.NumQubits, g, c.Ops[g.Core].G.Params[0])
	for i := 0; i < want.N; i++ {
		for j := 0; j < want.N; j++ {
			if d := cmplx.Abs(want.At(i, j) - got.At(i, j)); d > 1e-12 {
				t.Fatalf("gadget %+v: element (%d,%d) of the window is %v, of the rotation %v", *g, i, j, want.At(i, j), got.At(i, j))
			}
		}
	}
}

// TestGadgetStrings pins the string and sign of hand-written windows —
// ExpPauli's sdg h … h s and h … h forms, a Z-only ladder, a window whose
// basis change is the other way round (a minus sign), decomp's RXX and
// CRZ lowerings — and checks each against the dense product of its gates.
func TestGadgetStrings(t *testing.T) {
	const th = 0.37
	for _, tc := range []struct {
		name        string
		build       func(c *circuit.Circuit)
		first, last int
		x, z        uint64
		neg         bool
	}{
		{"sdg h .. h s", func(c *circuit.Circuit) {
			c.Sdg(0).H(0).CX(0, 1).RZ(th, 1).CX(0, 1).H(0).S(0)
		}, 0, 6, 0b01, 0b11, false},
		{"h .. h", func(c *circuit.Circuit) {
			c.H(0).H(2).CX(0, 2).RZ(th, 2).CX(0, 2).H(0).H(2)
		}, 0, 6, 0b101, 0, false},
		{"z only", func(c *circuit.Circuit) {
			c.CX(0, 2).CX(1, 2).RZ(th, 2).CX(1, 2).CX(0, 2)
		}, 0, 4, 0, 0b111, false},
		{"s h .. h sdg", func(c *circuit.Circuit) {
			c.S(0).H(0).CX(0, 1).RZ(th, 1).CX(0, 1).H(0).Sdg(0)
		}, 0, 6, 0b01, 0b11, true},
		{"ExpPauli(YXZ): suffix in term order", func(c *circuit.Circuit) {
			c.X(1).ExpPauli(th, []circuit.PauliTerm{{P: 'Y', Q: 2}, {P: 'X', Q: 0}, {P: 'Z', Q: 1}}).T(0)
		}, 1, 11, 0b101, 0b110, false},
		{"rxx lowered", func(c *circuit.Circuit) {
			c.H(0).H(1).CX(0, 1).RZ(th, 1).CX(0, 1).H(0).H(1)
		}, 0, 6, 0b11, 0, false},
		{"crz lowered: the leading rz is a gate", func(c *circuit.Circuit) {
			c.RZ(th/2, 1).CX(0, 1).RZ(-th/2, 1).CX(0, 1)
		}, 1, 3, 0, 0b11, false},
		{"rz on the control: the cx pair drops out", func(c *circuit.Circuit) {
			c.CX(0, 1).RZ(th, 0).CX(0, 1)
		}, 0, 2, 0, 0b01, false},
	} {
		c := circuit.New(tc.name, 3)
		tc.build(c)
		gs := markGadgets(c, nil)
		if len(gs) != 1 {
			t.Fatalf("%s: %d gadgets, want 1: %+v", tc.name, len(gs), gs)
		}
		g := gs[0]
		if g.First != tc.first || g.Last != tc.last || g.X != tc.x || g.Z != tc.z || g.Neg != tc.neg {
			t.Errorf("%s: marked %+v, want ops [%d,%d] x=%b z=%b neg=%v", tc.name, g, tc.first, tc.last, tc.x, tc.z, tc.neg)
		}
		checkGadget(t, c, &g)
	}
}

// TestGadgetsOnRandomConjugators: L · rz · L† for a random Clifford word L
// over {h, s, sdg, cx} with a two-qubit member is one gadget covering
// the whole window — L† laid out mirrored, or with its members on
// disjoint qubits in any other order that keeps each qubit's own — and
// the string conjugated out of it is the window's unitary.
func TestGadgetsOnRandomConjugators(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n = 4
	for trial := 0; trial < 200; trial++ {
		var l []gate.Gate
		for k, two := 1+rng.Intn(10), false; len(l) < k || !two; {
			p := rng.Perm(n)
			switch rng.Intn(4) {
			case 0:
				l = append(l, gate.NewH(p[0]))
			case 1:
				l = append(l, gate.NewS(p[0]))
			case 2:
				l = append(l, gate.NewSDG(p[0]))
			default:
				l = append(l, gate.NewCX(p[0], p[1]))
				two = true
			}
		}
		c := circuit.New("conjugators", n)
		c.Append(gate.NewT(rng.Intn(n))) // not a conjugator: bounds the window on the left
		c.Append(l...)
		c.RZ(rng.Float64()*4-2, rng.Intn(n))
		var suffix []gate.Gate
		for i := len(l) - 1; i >= 0; i-- {
			suffix = append(suffix, gate.Adjoint(l[i])...)
		}
		// Swap neighbours on disjoint qubits a few times.
		for k := 0; k < 2*len(suffix) && trial%2 == 1; k++ {
			if i := rng.Intn(len(suffix)); i+1 < len(suffix) && !sharesOperand(&suffix[i], &suffix[i+1]) {
				suffix[i], suffix[i+1] = suffix[i+1], suffix[i]
			}
		}
		c.Append(suffix...)
		c.Append(gate.NewT(rng.Intn(n)))
		gs := markGadgets(c, nil)
		if len(gs) != 1 || gs[0].First != 1 || gs[0].Last != len(c.Ops)-2 {
			t.Fatalf("trial %d: %v marked as %+v, want one gadget over ops [1,%d]", trial, c.Gates(), gs, len(c.Ops)-2)
		}
		checkGadget(t, c, &gs[0])
	}
}

// TestGadgetNearMisses: what must not be marked. A member that is
// conditional, a BARRIER or MEASURE inside, a suffix cx with its operands
// swapped, a window without a two-qubit member and a window a block
// boundary falls into leave no gadget at all. A basis change that does
// not undo its partner (s where sdg is due) closes the window below it:
// the layers that do match are still a rotation, about another string,
// and the mismatched pair stays two gates.
func TestGadgetNearMisses(t *testing.T) {
	cond := circuit.Condition{Offset: 0, Width: 1, Value: 1}
	for _, tc := range []struct {
		name       string
		build      func(c *circuit.Circuit)
		boundaries []int
	}{
		{"conditional cx", func(c *circuit.Circuit) {
			c.H(0).AppendCond(gate.NewCX(0, 1), cond)
			c.RZ(0.3, 1).CX(0, 1).H(0)
		}, nil},
		{"conditional rz", func(c *circuit.Circuit) {
			c.CX(0, 1).AppendCond(gate.NewRZ(0.3, 1), cond)
			c.CX(0, 1)
		}, nil},
		{"barrier inside", func(c *circuit.Circuit) { c.CX(0, 1).Barrier().RZ(0.3, 1).CX(0, 1) }, nil},
		{"barrier after the rz", func(c *circuit.Circuit) { c.CX(0, 1).RZ(0.3, 1).Barrier().CX(0, 1) }, nil},
		{"measure inside", func(c *circuit.Circuit) { c.CX(0, 1).Measure(2, 0).RZ(0.3, 1).CX(0, 1) }, nil},
		{"gphase inside", func(c *circuit.Circuit) {
			c.CX(0, 1).Append(gate.NewGPhase(0.1))
			c.RZ(0.3, 1).CX(0, 1)
		}, nil},
		{"swapped cx", func(c *circuit.Circuit) { c.H(0).CX(0, 1).RZ(0.3, 1).CX(1, 0).H(0) }, nil},
		{"another gate between", func(c *circuit.Circuit) { c.CX(0, 1).RZ(0.3, 1).T(1).CX(0, 1) }, nil},
		{"lone h rz h", func(c *circuit.Circuit) { c.H(1).RZ(0.3, 1).H(1) }, nil},
		{"u1 core", func(c *circuit.Circuit) { c.CX(0, 1).U1(0.3, 1).CX(0, 1) }, nil},
		{"boundary at the rz", func(c *circuit.Circuit) { c.H(0).CX(0, 1).RZ(0.3, 1).CX(0, 1).H(0) }, []int{2}},
		{"boundary after the rz", func(c *circuit.Circuit) { c.H(0).CX(0, 1).RZ(0.3, 1).CX(0, 1).H(0) }, []int{3}},
	} {
		c := circuit.New(tc.name, 3)
		c.NumClbits = 1
		tc.build(c)
		if gs := markGadgets(c, tc.boundaries); len(gs) != 0 {
			t.Errorf("%s: marked %+v, want nothing", tc.name, gs)
		}
		out, _, st, rec := OptimizeBlocks(c, tc.boundaries)
		if st.Gadgets != 0 || len(rec.Gadgets) != 0 {
			t.Errorf("%s: the pass reports %d gadgets", tc.name, st.Gadgets)
		}
		if err := out.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}

	c := circuit.New("s where sdg is due", 2)
	c.S(0).H(0).CX(0, 1).RZ(0.3, 1).CX(0, 1).H(0).S(0)
	gs := markGadgets(c, nil)
	if len(gs) != 1 || gs[0].First != 1 || gs[0].Last != 5 || gs[0].X != 0b01 || gs[0].Z != 0b10 || gs[0].Neg {
		t.Fatalf("s .. s: marked %+v, want the h cx rz cx h inside as X0 Z1", gs)
	}
	checkGadget(t, c, &gs[0])
	// A boundary inside the basis changes clips the window the same way.
	c = circuit.New("boundary in the prefix", 2)
	c.Sdg(0).H(0).CX(0, 1).RZ(0.3, 1).CX(0, 1).H(0).S(0)
	if gs := markGadgets(c, []int{1}); len(gs) != 1 || gs[0].First != 1 || gs[0].Last != 5 {
		t.Fatalf("boundary before the h: marked %+v, want ops [1,5]", gs)
	}
}

func randomThetas(rng *rand.Rand, n int) []float64 {
	th := make([]float64, qasmbench.UCCSDNumParams(n))
	for i := range th {
		th[i] = 0.05 + rng.Float64()
	}
	return th
}

// TestUCCSDIsAllGadgets: a UCCSD ansatz is its Hartree-Fock x gates and
// one gadget per rz — 16 / 90 / 320 / 850 on 4 / 6 / 8 / 10 orbitals —
// with nothing left over, and the pass emits it verbatim.
func TestUCCSDIsAllGadgets(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for n, want := range map[int]int{4: 16, 6: 90, 8: 320, 10: 850} {
		c := qasmbench.BuildUCCSD(n, randomThetas(rng, n))
		out, spans, st, rec := OptimizeBlocks(c, nil)
		if c.CountKind(gate.RZ) != want || st.Gadgets != want || len(rec.Gadgets) != want {
			t.Fatalf("UCCSD(%d): %d rz, %d gadgets, want %d of each", n, c.CountKind(gate.RZ), st.Gadgets, want)
		}
		if !rec.Verbatim || !reflect.DeepEqual(out.Ops, c.Ops) || len(spans) != len(c.Ops) {
			t.Fatalf("UCCSD(%d): the pass changed the stream (%d -> %d ops, verbatim %v)", n, len(c.Ops), len(out.Ops), rec.Verbatim)
		}
		if st.GadgetGates != len(c.Ops)-n/2 || st.FusedRuns+st.Identities+st.Cancellations != 0 {
			t.Fatalf("UCCSD(%d): stats %+v, want every op but the %d x inside a gadget", n, st, n/2)
		}
		next := 0
		for gi := range rec.Gadgets {
			g := &rec.Gadgets[gi]
			for ; next < g.First; next++ {
				if out.Ops[next].G.Kind != gate.X {
					t.Fatalf("UCCSD(%d): op %d (%s) is outside every gadget", n, next, out.Ops[next].G)
				}
			}
			next = g.Last + 1
			if n <= 6 {
				checkGadget(t, out, g)
			}
		}
		if next != len(out.Ops) {
			t.Fatalf("UCCSD(%d): %d ops trail the last gadget", n, len(out.Ops)-next)
		}
		if len(rec.Sites) != want {
			t.Fatalf("UCCSD(%d): %d bind sites, want one per rz", n, len(rec.Sites))
		}
	}
}

// gadgetCircuit is random gates with ExpPauli windows, lowered RXX and
// CRZ, and lone rz spliced in.
func gadgetCircuit(rng *rand.Rand, n, pieces int) *circuit.Circuit {
	c := circuit.New("spliced", n)
	for k := 0; k < pieces; k++ {
		p := rng.Perm(n)
		switch rng.Intn(8) {
		case 0:
			c.H(p[0])
		case 1:
			c.CX(p[0], p[1])
		case 2:
			c.RZ(rng.Float64(), p[0])
		case 3:
			c.S(p[0]).T(p[1])
		case 4:
			c.H(p[0]).H(p[1]).CX(p[0], p[1]).RZ(rng.Float64(), p[1]).CX(p[0], p[1]).H(p[0]).H(p[1])
		case 5:
			c.RZ(0.2, p[1]).CX(p[0], p[1]).RZ(-0.2, p[1]).CX(p[0], p[1])
		default:
			var terms []circuit.PauliTerm
			for _, q := range p[:1+rng.Intn(n)] {
				terms = append(terms, circuit.PauliTerm{P: []circuit.Pauli{'X', 'Y', 'Z'}[rng.Intn(3)], Q: q})
			}
			c.ExpPauli(rng.Float64()*2-1, terms)
		}
	}
	return c
}

// TestGadgetsSurviveACut: the gadgets of a stream cut anywhere outside a
// window are the gadgets behind the cut — marking restarts at every
// window, so a stream resumed at a step boundary executes the passes the
// uninterrupted one does. Every window marked is the rotation it claims.
func TestGadgetsSurviveACut(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	marked := 0
	for trial := 0; trial < 30; trial++ {
		c := gadgetCircuit(rng, 5, 40)
		var bs []int
		if trial%3 == 2 {
			bs = someBoundaries(rng, c)
		}
		whole := markGadgets(c, bs)
		marked += len(whole)
		inside := make([]bool, len(c.Ops)+1)
		for gi := range whole {
			g := &whole[gi]
			checkGadget(t, c, g)
			if gi > 0 && g.First <= whole[gi-1].Last {
				t.Fatalf("trial %d: gadgets %+v and %+v overlap", trial, whole[gi-1], *g)
			}
			for i := g.First + 1; i <= g.Last; i++ {
				inside[i] = true
			}
			for _, b := range bs {
				if g.First < b && b <= g.Last {
					t.Fatalf("trial %d: gadget %+v straddles boundary %d", trial, *g, b)
				}
			}
		}
		for cut := 1; cut < len(c.Ops); cut++ {
			if inside[cut] {
				continue
			}
			rest := &circuit.Circuit{NumQubits: c.NumQubits, Ops: c.Ops[cut:]}
			var restBs []int
			for _, b := range bs {
				if b > cut {
					restBs = append(restBs, b-cut)
				}
			}
			var want []Gadget
			for _, g := range whole {
				if g.First >= cut {
					g.First, g.Last, g.Core = g.First-cut, g.Last-cut, g.Core-cut
					want = append(want, g)
				}
			}
			if got := markGadgets(rest, restBs); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d cut at %d: marked %+v behind the cut, the whole stream has %+v there", trial, cut, got, want)
			}
		}
	}
	if marked < 100 {
		t.Fatalf("only %d gadgets across the corpus; the comparison is too thin", marked)
	}
}

// TestGadgetMembersStayVerbatim: inside a window the pass neither fuses
// 1q members with their neighbours, nor cancels a member cx against an
// equal cx next to the window or in the next window, nor absorbs anything;
// the gates around the window are flushed before it.
func TestGadgetMembersStayVerbatim(t *testing.T) {
	c := circuit.New("verbatim", 3)
	c.T(0).H(0) // a pending run on a window qubit: flushed ahead of the window
	c.CX(0, 2).CX(1, 2).RZ(0.3, 2).CX(1, 2).CX(0, 2)
	c.CX(0, 2).CX(1, 2).RZ(0.4, 2).CX(1, 2).CX(0, 2) // its first cx equals the previous window's last
	c.CX(0, 2).T(2)                                  // equal to the last member before it
	out, spans, st, rec := OptimizeBlocks(c, nil)
	if st.Gadgets != 2 || st.GadgetGates != 10 || st.Cancellations != 0 {
		t.Fatalf("stats %+v, want 2 gadgets of 10 gates and nothing cancelled", st)
	}
	for _, g := range rec.Gadgets {
		for i := g.First; i <= g.Last; i++ {
			src := spans[i]
			if src.First != src.Last || !reflect.DeepEqual(out.Ops[i], c.Ops[src.First]) {
				t.Fatalf("output op %d (%s) is not source op %d verbatim", i, out.Ops[i].G, src.First)
			}
		}
		checkGadget(t, out, &g)
	}
	if len(out.Ops) != len(c.Ops)-1 || out.Ops[0].G.Kind != gate.U3 {
		t.Fatalf("want t·h fused into one u3 ahead of the window and nothing else changed, got %v", out.Gates())
	}
	if rec.Verbatim {
		t.Fatal("a stream with a fused run is not verbatim")
	}
}
