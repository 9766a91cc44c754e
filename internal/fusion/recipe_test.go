package fusion

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/gate"
	"svsim/internal/qasmbench"
)

// cancelPairsRounds is the pass as first written — every round rebuilds
// the live set and rescans every op — kept as the oracle cancelPairs must
// agree with op for op: which copy of a repeated gate survives decides
// its span, and spans decide what later cancels under boundaries. The
// members of gadgets are pinned: they never cancel.
func cancelPairsRounds(ops []circuit.Op, sps []Span, boundaries []int, gadgets []Gadget) ([]circuit.Op, []Span, int) {
	pinned := make([]bool, len(ops))
	for _, g := range gadgets {
		for i := g.First; i <= g.Last; i++ {
			pinned[i] = true
		}
	}
	blockOf := func(s Span) int {
		lo := 0
		for lo < len(boundaries) && boundaries[lo] <= s.First {
			lo++
		}
		return lo
	}
	cancelled := 0
	for changed := true; changed; {
		changed = false
		alive := make([]bool, len(ops))
		for i := range alive {
			alive[i] = true
		}
		for i := 0; i < len(ops); i++ {
			if !alive[i] || !cancellable(&ops[i]) || pinned[i] {
				continue
			}
			for j := i + 1; j < len(ops); j++ {
				if !alive[j] {
					continue
				}
				if !sharesOperand(&ops[i].G, &ops[j].G) && ops[j].Cond == nil && ops[j].G.Kind.Unitary() {
					continue
				}
				if sameSelfInverse(&ops[i], &ops[j]) && !pinned[j] && blockOf(sps[i]) == blockOf(sps[j]) {
					alive[i], alive[j] = false, false
					cancelled++
					changed = true
				}
				break
			}
		}
		var next []circuit.Op
		var nextSp []Span
		var nextPin []bool
		for i, ok := range alive {
			if ok {
				next = append(next, ops[i])
				nextSp = append(nextSp, sps[i])
				nextPin = append(nextPin, pinned[i])
			}
		}
		ops, sps, pinned = next, nextSp, nextPin
	}
	return ops, sps, cancelled
}

// cancelHeavy is random circuits built to cancel in nested, interleaved
// and repeated patterns: few qubits, mostly self-inverse multi-qubit
// gates, each often followed by its own mirror image.
func cancelHeavy(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New("cancel", n)
	var stack []gate.Gate
	for len(c.Ops) < gates {
		p := rng.Perm(n)
		var g gate.Gate
		switch rng.Intn(6) {
		case 0:
			g = gate.NewCX(p[0], p[1])
		case 1:
			g = gate.NewCZ(p[0], p[1])
		case 2:
			g = gate.NewSWAP(p[0], p[1])
		case 3:
			g = gate.NewCCX(p[0], p[1], p[2])
		case 4:
			g = gate.NewRZ(rng.Float64(), p[0])
		default:
			g = gate.NewH(p[0])
		}
		c.Append(g)
		stack = append(stack, g)
		if rng.Intn(3) == 0 { // unwind some of what was pushed
			for k := rng.Intn(len(stack) + 1); k > 0; k-- {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if top.Kind != gate.RZ {
					c.Append(top)
				}
			}
		}
	}
	return c
}

func testCircuits(t *testing.T) []*circuit.Circuit {
	t.Helper()
	var all []*circuit.Circuit
	for _, e := range qasmbench.Medium() {
		all = append(all, e.Build(), e.Compact())
	}
	rng := rand.New(rand.NewSource(7))
	for n := 6; n <= 10; n++ {
		if testing.Short() && n > 8 {
			break
		}
		th := make([]float64, qasmbench.UCCSDNumParams(n))
		for i := range th {
			th[i] = 0.05 + rng.Float64()
		}
		all = append(all, qasmbench.BuildUCCSD(n, th))
	}
	for i := 0; i < 40; i++ {
		all = append(all, cancelHeavy(rng, 3+i%4, 300), randomUnitaryCircuit(rng, 6, 200))
	}
	return all
}

// someBoundaries picks an ascending boundary list over c's ops.
func someBoundaries(rng *rand.Rand, c *circuit.Circuit) []int {
	var bs []int
	for b := 1 + rng.Intn(8); b < len(c.Ops); b += 1 + rng.Intn(1+len(c.Ops)/5) {
		bs = append(bs, b)
	}
	return bs
}

func TestCancelPairsMatchesRoundByRoundReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cancelled := 0
	for _, c := range testCircuits(t) {
		for _, bs := range [][]int{nil, someBoundaries(rng, c)} {
			var st Stats
			fused, spans, rec := fuse1Q(c, bs, &st)
			wantOps, wantSpans, wantN := cancelPairsRounds(fused.Ops, spans, bs, rec.Gadgets)
			var got Stats
			gotOps, gotSpans, renum := cancelPairs(fused.Ops, spans, bs, rec.Gadgets, &got)
			if got.Cancellations != wantN {
				t.Fatalf("%s: %d cancellations, reference %d", c.Name, got.Cancellations, wantN)
			}
			if len(gotOps) != len(wantOps) || (len(wantOps) > 0 && !reflect.DeepEqual(gotOps, wantOps)) {
				t.Fatalf("%s: surviving ops differ from the reference (%d vs %d)", c.Name, len(gotOps), len(wantOps))
			}
			if len(wantSpans) > 0 && !reflect.DeepEqual(gotSpans, wantSpans) {
				t.Fatalf("%s: surviving spans differ from the reference", c.Name)
			}
			if (renum == nil) != (wantN == 0) {
				t.Fatalf("%s: renum presence does not match %d cancellations", c.Name, wantN)
			}
			cancelled += wantN
		}
	}
	if cancelled < 1000 {
		t.Fatalf("only %d cancellations across the corpus; the comparison is too thin", cancelled)
	}
}

func opsBitEqual(a, b []circuit.Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		g, w := &a[i].G, &b[i].G
		if g.Kind != w.Kind || g.NQ != w.NQ || g.NP != w.NP || g.Cbit != w.Cbit || g.Qubits != w.Qubits {
			return false
		}
		for k := range g.Params {
			if math.Float64bits(g.Params[k]) != math.Float64bits(w.Params[k]) {
				return false
			}
		}
		if (a[i].Cond == nil) != (b[i].Cond == nil) || (a[i].Cond != nil && *a[i].Cond != *b[i].Cond) {
			return false
		}
	}
	return true
}

// withParams returns c with every parameter redrawn from pick.
func withParams(c *circuit.Circuit, pick func() float64) *circuit.Circuit {
	out := &circuit.Circuit{Name: c.Name, NumQubits: c.NumQubits, NumClbits: c.NumClbits,
		Ops: append([]circuit.Op(nil), c.Ops...)}
	for i := range out.Ops {
		g := &out.Ops[i].G
		for k := 0; k < int(g.NP); k++ {
			g.Params[k] = pick()
		}
	}
	return out
}

// TestRebindMatchesOptimize: binding new angles through the recipe of
// one pass gives, bit for bit, the ops a fresh pass over those angles
// gives — gates inside fused runs, runs of one, multi-qubit parametric
// gates, conditioned ops and the trailing gphase included — and never
// writes the recorded output.
func TestRebindMatchesOptimize(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	generic := func() float64 { return 0.05 + 3*rng.Float64() }
	cond := circuit.New("cond", 3)
	cond.NumClbits = 1
	cond.RY(0.1, 0).RZ(0.2, 0).RX(0.3, 1)
	cond.Append(gate.NewMeasure(0, 0))
	cond.AppendCond(gate.NewRX(0.4, 1), circuit.Condition{Offset: 0, Width: 1, Value: 1})
	cond.AppendCond(gate.NewGPhase(0.5), circuit.Condition{Offset: 0, Width: 1, Value: 1})
	cond.Append(gate.NewGPhase(0.6))
	cond.RZ(0.7, 1).RY(0.8, 1).CX(1, 2).CX(1, 2).RY(0.9, 2)
	rebound := 0
	for _, c := range append(testCircuits(t), cond) {
		c = withParams(c, generic)
		bs := someBoundaries(rng, c)
		tmpl, spans, st, rec := OptimizeBlocks(c, bs)
		keep := append([]circuit.Op(nil), tmpl.Ops...)
		for trial := 0; trial < 3; trial++ {
			b := withParams(c, generic)
			want, wantSpans, wantSt, _ := OptimizeBlocks(b, bs)
			ops := append([]circuit.Op(nil), tmpl.Ops...)
			if !rec.Rebind(b, ops) {
				t.Fatalf("%s: a generic binding did not fit the recipe of another", c.Name)
			}
			if !opsBitEqual(ops, want.Ops) {
				t.Fatalf("%s: rebound ops differ from a fresh pass", c.Name)
			}
			if wantSt != st || (len(spans) > 0 && !reflect.DeepEqual(spans, wantSpans)) {
				t.Fatalf("%s: generic bindings disagree on spans or stats; equal tags would not imply an equal pass", c.Name)
			}
			rebound += len(rec.Sites)
		}
		if !opsBitEqual(tmpl.Ops, keep) {
			t.Fatalf("%s: Rebind wrote the recorded output", c.Name)
		}
	}
	if rebound == 0 {
		t.Fatal("no circuit had a bind site")
	}
}

// TestRebindRejectsAnotherShape: a binding whose fused stream has a
// different shape must be refused, not written.
func TestRebindRejectsAnotherShape(t *testing.T) {
	shape := func(a, b float64) *circuit.Circuit {
		c := circuit.New("s", 2)
		c.RZ(a, 0).RX(b, 0).CX(0, 1).RZ(a, 1).RZ(b, 1)
		return c
	}
	_, _, _, rec := OptimizeBlocks(shape(0.3, 0.9), nil)
	for name, c := range map[string]*circuit.Circuit{
		"u3 becomes u1":        shape(0.3, 0),
		"run becomes identity": shape(0.3, -0.3),
		"gphase vanishes":      shape(0.3, -0.6), // the runs' phases, -a/2 and -(a+b)/2, cancel
	} {
		out, _, _, _ := OptimizeBlocks(c, nil)
		fresh, _, _, _ := OptimizeBlocks(shape(0.3, 0.9), nil)
		if len(out.Ops) == len(fresh.Ops) && out.Ops[len(out.Ops)-1].G.Kind == fresh.Ops[len(fresh.Ops)-1].G.Kind &&
			out.Ops[0].G.Kind == fresh.Ops[0].G.Kind {
			t.Fatalf("%s: the binding is not degenerate; the case is vacuous", name)
		}
		if rec.Rebind(c, make([]circuit.Op, len(fresh.Ops))) {
			t.Fatalf("%s: Rebind accepted a binding of another shape", name)
		}
	}
}
