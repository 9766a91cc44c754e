package decomp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/gate"
	"svsim/internal/statevec"
)

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

func compoundKinds() []gate.Kind {
	var ks []gate.Kind
	for i := 0; i < gate.NumKinds; i++ {
		k := gate.Kind(i)
		if k.Unitary() && !IsStandard(k) {
			ks = append(ks, k)
		}
	}
	return ks
}

func TestEveryCompoundDecompositionExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 6
	for _, k := range compoundKinds() {
		for trial := 0; trial < 4; trial++ {
			perm := rng.Perm(n)
			qs := perm[:k.NumQubits()]
			ps := make([]float64, k.NumParams())
			for j := range ps {
				ps[j] = (rng.Float64()*2 - 1) * 2 * math.Pi
			}
			g := gate.New(k, qs, ps...)
			direct := randomState(rng, n)
			lowered := direct.Clone()
			direct.Apply(&g)
			for _, sub := range ExpandGate(g) {
				lowered.Apply(&sub)
			}
			if d := direct.MaxAbsDiff(lowered); d > 1e-9 {
				t.Fatalf("kind %s ops %v params %v: decomposition deviates by %g",
					k, qs, ps, d)
			}
		}
	}
}

func TestExpandedGatesAreStandard(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, k := range compoundKinds() {
		qs := make([]int, k.NumQubits())
		for i := range qs {
			qs[i] = i
		}
		ps := make([]float64, k.NumParams())
		for j := range ps {
			ps[j] = rng.Float64()
		}
		for _, sub := range ExpandGate(gate.New(k, qs, ps...)) {
			if !IsStandard(sub.Kind) {
				t.Fatalf("kind %s expansion contains non-standard %s", k, sub.Kind)
			}
		}
	}
}

func TestMCXArbitraryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for nc := 0; nc <= 5; nc++ {
		n := nc + 2
		perm := rng.Perm(n)
		ctrls := perm[:nc]
		tgt := perm[nc]
		direct := randomState(rng, n)
		lowered := direct.Clone()
		denseControlled(gate.Unitary(gate.NewX(0)), n, ctrls, tgt).Apply(direct.Re, direct.Im)
		for _, sub := range MCX(ctrls, tgt) {
			for _, g := range ExpandGate(sub) {
				lowered.Apply(&g)
			}
		}
		if d := direct.MaxAbsDiff(lowered); d > 1e-9 {
			t.Fatalf("MCX with %d controls deviates by %g", nc, d)
		}
	}
}

// denseControlled is the 2^n-square matrix applying the 2x2 u to qubit
// t where every control is 1.
func denseControlled(u gate.Matrix, n int, ctrls []int, t int) gate.Matrix {
	m := gate.Identity(1 << uint(n))
	var cmask int
	for _, c := range ctrls {
		cmask |= 1 << uint(c)
	}
	tbit := 1 << uint(t)
	for i := 0; i < m.N; i++ {
		if i&cmask != cmask {
			continue
		}
		a := i >> uint(t) & 1
		for b := 0; b < 2; b++ {
			m.Set(i, i&^tbit|b*tbit, u.At(a, b))
		}
	}
	return m
}

// TestControlledAgainstDense: every kind Controlled lowers, under 0 to 5
// controls, equals the dense controlled matrix; one control is the one
// gate of the kind that names it, and so are 2 to 4 controls on x.
func TestControlledAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	named := map[gate.Kind]gate.Kind{
		gate.X: gate.CX, gate.Y: gate.CY, gate.Z: gate.CZ, gate.H: gate.CH,
		gate.S: gate.CS, gate.SDG: gate.CSDG, gate.T: gate.CT, gate.TDG: gate.CTDG,
		gate.U1: gate.CU1, gate.RX: gate.CRX, gate.RY: gate.CRY, gate.RZ: gate.CRZ,
	}
	kinds := []gate.Kind{gate.GPHASE}
	for k := range named {
		kinds = append(kinds, k)
	}
	for _, k := range kinds {
		for nc := 0; nc <= 5; nc++ {
			n := nc + 2
			perm := rng.Perm(n)
			ctrls, tgt := perm[:nc], perm[nc]
			theta := (rng.Float64()*2 - 1) * 2 * math.Pi
			var g gate.Gate
			u := gate.Identity(2).Scale(cmplx.Exp(complex(0, theta)))
			if k == gate.GPHASE {
				g = gate.NewGPhase(theta)
			} else {
				qs, ps := []int{tgt}, []float64{theta}
				g = gate.New(k, qs, ps[:k.NumParams()]...)
				u = gate.Unitary(g)
			}
			direct := randomState(rng, n)
			lowered := direct.Clone()
			denseControlled(u, n, ctrls, tgt).Apply(direct.Re, direct.Im)
			out := Controlled(g, ctrls)
			for i := range out {
				lowered.Apply(&out[i])
			}
			if d := direct.MaxAbsDiff(lowered); d > 1e-11 {
				t.Fatalf("%s under %d controls deviates by %g", k, nc, d)
			}
			want, ok := named[k]
			switch {
			case k == gate.X && nc >= 2 && nc <= 4:
				want, ok = []gate.Kind{gate.CCX, gate.C3X, gate.C4X}[nc-2], true
			case nc != 1:
				ok = false
			}
			if ok && (len(out) != 1 || out[0].Kind != want) {
				t.Fatalf("%s under %d controls lowers to %d gates, want one %s", k, nc, len(out), want)
			}
		}
	}
}

// TestControlledRejectsARepeatedQubit: a control named twice, or equal to
// the target, panics on every lowering path.
func TestControlledRejectsARepeatedQubit(t *testing.T) {
	for _, c := range []struct {
		g     gate.Gate
		ctrls []int
	}{
		{gate.NewX(1), []int{1}},
		{gate.NewH(1), []int{0, 0}},
		{gate.NewS(2), []int{0, 2, 1}},
		{gate.NewRY(0.3, 4), []int{0, 1, 2, 3, 3}},
		{gate.NewX(5), []int{0, 1, 2, 3, 4, 0}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s under %v was lowered", c.g.Kind, c.ctrls)
				}
			}()
			Controlled(c.g, c.ctrls)
		}()
	}
}

func TestKnownGateCounts(t *testing.T) {
	// The lowered sizes that QASMBench's low-level circuits are built from.
	cases := []struct {
		g    gate.Gate
		want int
	}{
		{gate.NewCU1(0.5, 0, 1), 5},
		{gate.NewSWAP(0, 1), 3},
		{gate.NewCCX(0, 1, 2), 15},
		{gate.NewCZ(0, 1), 3},
		{gate.NewRZZ(0.5, 0, 1), 3},
		{gate.NewCRZ(0.5, 0, 1), 4},
		{gate.NewCH(0, 1), 3},
		{gate.NewCSWAP(0, 1, 2), 17},
	}
	for _, c := range cases {
		if got := len(ExpandGate(c.g)); got != c.want {
			t.Errorf("%s expands to %d gates, want %d", c.g.Kind, got, c.want)
		}
	}
}

func TestExpandCircuitPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 6
	c := circuit.New("mixed", n)
	c.H(0).CCX(0, 1, 2).CU1(0.7, 2, 3).Swap(3, 4).CRY(1.1, 4, 5).RZZ(0.4, 0, 5)
	c.C3X(0, 1, 2, 3)
	ex := Expand(c)
	for i := range ex.Ops {
		if !IsStandard(ex.Ops[i].G.Kind) {
			t.Fatalf("expanded circuit contains %s", ex.Ops[i].G.Kind)
		}
	}
	a := randomState(rng, n)
	b := a.Clone()
	for i := range c.Ops {
		a.Apply(&c.Ops[i].G)
	}
	for i := range ex.Ops {
		b.Apply(&ex.Ops[i].G)
	}
	if d := a.MaxAbsDiff(b); d > 1e-9 {
		t.Fatalf("expanded circuit deviates by %g", d)
	}
	if ex.NumGates() <= c.NumGates() {
		t.Fatal("expansion did not grow the circuit")
	}
}

func TestExpandPreservesConditions(t *testing.T) {
	c := circuit.New("cond", 3)
	c.NumClbits = 2
	c.AppendCond(gate.NewCCX(0, 1, 2), circuit.Condition{Offset: 0, Width: 2, Value: 3})
	ex := Expand(c)
	if ex.NumGates() != 15 {
		t.Fatalf("conditioned ccx expanded to %d", ex.NumGates())
	}
	for i := range ex.Ops {
		if ex.Ops[i].Cond == nil || ex.Ops[i].Cond.Value != 3 {
			t.Fatalf("op %d lost its condition", i)
		}
	}
}

func TestExpandKeepsMeasureResetBarrier(t *testing.T) {
	c := circuit.New("nm", 2)
	c.Measure(0, 0).Reset(1).Barrier()
	ex := Expand(c)
	if ex.NumGates() != 3 {
		t.Fatalf("non-unitary ops mangled: %d", ex.NumGates())
	}
}

func TestMCXVChainNeedsAncillas(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic with too few ancillas")
		}
	}()
	MCXVChain([]int{0, 1, 2, 3}, 4, []int{5}) // needs 2 ancillas, got 1
}

func TestMCXVChainSmallFallsBack(t *testing.T) {
	// <= 2 controls need no ancillas and fall back to CX/CCX.
	if g := MCXVChain([]int{0}, 1, nil); len(g) != 1 || g[0].Kind != gate.CX {
		t.Fatalf("1-control chain: %v", g)
	}
	if g := MCXVChain([]int{0, 1}, 2, nil); len(g) != 1 || g[0].Kind != gate.CCX {
		t.Fatalf("2-control chain: %v", g)
	}
}

func TestDecomposeStandardIsIdentity(t *testing.T) {
	g := gate.NewH(3)
	out := Decompose(g)
	if len(out) != 1 || out[0] != g {
		t.Fatalf("standard gate decomposed: %v", out)
	}
}

func TestDecomposePassesThroughRuntimeOps(t *testing.T) {
	// Measurement/reset/barrier are part of the lowered target set and
	// pass through unchanged.
	for _, g := range []gate.Gate{gate.NewMeasure(0, 0), gate.NewReset(1), gate.NewBarrier()} {
		out := Decompose(g)
		if len(out) != 1 || out[0].Kind != g.Kind {
			t.Fatalf("runtime op %s mangled: %v", g.Kind, out)
		}
	}
}
