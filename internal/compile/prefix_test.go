package compile

import (
	"fmt"
	"math/rand"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/fusion"
	"svsim/internal/gate"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
)

// qftX is the QFT workloads' circuit: n/2 x gates, drawn by the seed,
// prepare the input, then QFT(n).
func qftX(n int, seed int64) *circuit.Circuit {
	c := circuit.New("qft_x", n)
	qs := rand.New(rand.NewSource(seed)).Perm(n)[:n/2]
	x := make([]bool, n)
	for _, q := range qs {
		x[q] = true
	}
	for q := 0; q < n; q++ {
		if x[q] {
			c.X(q)
		}
	}
	return c.Concat(qasmbench.QFT(n))
}

// passes counts the kernel passes over the state a run makes in plan
// steps [from, to): one per gate step (BARRIER excepted), remap step, or
// run (a diagonal run or a gadget is one pass).
func passes(cp *CompiledPlan, from, to int) int {
	n, ri := 0, 0
	for si := from; si < to; si++ {
		for ri < len(cp.Runs) && cp.Runs[ri].Step < si {
			ri++
		}
		st := &cp.Plan.Steps[si]
		switch {
		case ri < len(cp.Runs) && cp.Runs[ri].Step == si:
			si += cp.Runs[ri].Gates - 1
			n++
		case st.Kind == sched.StepRemap:
			n++
		case st.Kind == sched.StepGate && cp.Circuit.Ops[st.Op].G.Kind != gate.BARRIER:
			n++
		}
	}
	return n
}

// TestClassicalPrefixShare names the property the fold depends on and
// measures its share: how many gates of each workload's circuit and of
// every medium-suite circuit are classical prefix, and how many passes a
// fresh run makes before and after the fold. A compile-only count.
func TestClassicalPrefixShare(t *testing.T) {
	type row struct {
		name       string
		c          *circuit.Circuit
		cfg        Config
		prefix     int // gates (ops) of the classical prefix
		before     int // passes with the prefix executed
		after      int // passes of a fresh run
		tileSweeps int // tiled passes of a fresh run; 0 = not tiled
	}
	uccsd := qasmbench.BuildUCCSD(10, make([]float64, qasmbench.UCCSDNumParams(10)))
	rows := []row{
		// qft22_single and qft22_tiled_mt compile to the one tiled plan.
		{name: "qft22", c: qftX(22, 1), prefix: 11, before: 54, after: 43, tileSweeps: 16},
		{name: "vqe_sweep", c: uccsd, cfg: Config{Fuse: true}, prefix: 5, before: 855, after: 850},
	}
	for _, seed := range []int64{1, 7, 3001} {
		rqc := qasmbench.RQC(20, 16, seed)
		rows = append(rows,
			row{name: fmt.Sprintf("rqc20_pgas_naive/%d", seed), c: rqc, cfg: Config{PEs: 2}, prefix: 0, before: -1},
			row{name: fmt.Sprintf("rqc20_pgas_lazy/%d", seed), c: rqc, cfg: Config{PEs: 2, Sched: sched.Lazy}, prefix: 0, before: -1})
	}
	// The medium suite and rqc, which svc_mixed submits: the arithmetic
	// circuits prepare their input with x gates.
	suite := map[string][3]int{ // prefix gates, passes before, after
		"seca": {0, 190, 190}, "sat": {0, 1360, 1360}, "cc_n12": {0, 22, 22}, "multiply": {4, 343, 339},
		"bv_n14": {0, 41, 41}, "qf21": {1, 298, 297}, "qft_n15": {0, 449, 449}, "multiplier": {5, 457, 452},
		"rqc": {0, -1, -1},
	}
	rqc, err := qasmbench.ByName("rqc")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range append(qasmbench.Medium(), rqc) {
		want, ok := suite[e.Name]
		if !ok {
			t.Fatalf("suite circuit %s has no row", e.Name)
		}
		rows = append(rows, row{name: e.Name, c: e.Build(), prefix: want[0], before: want[1], after: want[2]})
	}
	t.Logf("%-18s %6s %7s %14s %s", "circuit", "gates", "prefix", "passes", "share")
	for _, r := range rows {
		cp, st, err := Compile(r.c, r.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st.PrefixGates+st.PrefixRemaps != cp.Plan.Prefix {
			t.Fatalf("%s: stats count %d+%d prefix steps, plan %d", r.name, st.PrefixGates, st.PrefixRemaps, cp.Plan.Prefix)
		}
		end := len(cp.Plan.Steps)
		before, after := passes(cp, 0, end), passes(cp, cp.Plan.Prefix, end)
		t.Logf("%-18s %6d %7d %6d -> %-5d %.1f%%", r.name, r.c.NumGates(), st.PrefixGates, before, after,
			100*float64(before-after)/float64(before))
		if r.prefix >= 0 && st.PrefixGates != r.prefix {
			t.Errorf("%s: %d prefix gates, want %d", r.name, st.PrefixGates, r.prefix)
		}
		if r.before >= 0 && (before != r.before || after != r.after) {
			t.Errorf("%s: %d -> %d passes, want %d -> %d", r.name, before, after, r.before, r.after)
		}
		if r.tileSweeps > 0 {
			sweeps := 0
			for _, g := range cp.Tiles.Groups {
				if g.Tiled {
					sweeps++
				} else {
					sweeps += passes(cp, g.Start, g.End)
				}
			}
			if sweeps != r.tileSweeps {
				t.Errorf("%s: %d tiled sweeps, want %d", r.name, sweeps, r.tileSweeps)
			}
		}
	}
}

// TestClassicalPrefixRule pins what the prefix holds: unconditioned X-
// and SWAP-family gates, aliases and remaps; it stops at the first other
// gate, at a conditioned or measured op, and at a gadget's first gate,
// and tile groups start behind it.
func TestClassicalPrefixRule(t *testing.T) {
	c := circuit.New("rule", 6)
	c.X(0).CX(0, 5)
	c.Append(gate.NewCCX(0, 5, 3), gate.NewC3X(0, 3, 5, 1), gate.NewC4X(0, 1, 3, 5, 2))
	c.Swap(4, 5)
	c.Append(gate.NewCSWAP(2, 1, 4))
	full := len(c.Ops)
	c.H(0).X(1)
	for _, pol := range []sched.Policy{sched.Naive, sched.Lazy} {
		cp, _, err := Compile(c, Config{Sched: pol, PEs: 4, TileBits: 2})
		if err != nil {
			t.Fatal(err)
		}
		ops := 0
		for _, st := range cp.Plan.Steps[:cp.Plan.Prefix] {
			if st.Kind != sched.StepRemap {
				ops++
			}
		}
		if ops != full {
			t.Fatalf("%s: prefix holds %d ops, want %d", pol, ops, full)
		}
		if g := cp.Plan.Steps[cp.Plan.Prefix]; g.Kind != sched.StepGate || c.Ops[g.Op].G.Kind != gate.H {
			t.Fatalf("%s: prefix ends at step %+v, want the h", pol, g)
		}
		if cp.Tiles != nil && cp.Tiles.Groups[0].Start != cp.Plan.Prefix {
			t.Fatalf("%s: first tile group starts at %d, prefix is %d steps", pol, cp.Tiles.Groups[0].Start, cp.Plan.Prefix)
		}
		// The basis state the prefix leaves: x sets q0, cx q5, ccx q3, c3x
		// q1, c4x q2; swap(4,5) moves q5's bit to q4, and cswap(2; 1,4)
		// exchanges two set bits.
		basis, perm := cp.Plan.PrefixState(cp.Circuit)
		if want := 0b011111; basis != want {
			t.Fatalf("%s: prefix leaves |%06b>, want |%06b>", pol, basis, want)
		}
		if err := perm.Validate(); err != nil {
			t.Fatal(err)
		}
	}

	cond := circuit.New("cond", 3).X(0)
	cond.NumClbits = 1
	cond.AppendCond(gate.NewX(1), circuit.Condition{Offset: 0, Width: 1, Value: 0})
	stops := map[string]*circuit.Circuit{
		"conditioned x": cond,
		"measure":       circuit.New("meas", 3).X(0).Measure(0, 0).X(1),
		"cy":            circuit.New("cy", 3).X(0).CY(0, 1).X(1),
		"barrier":       circuit.New("barrier", 3).X(0).Barrier().X(1),
	}
	for name, c := range stops {
		cp, _, err := Compile(c, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if cp.Plan.Prefix != 1 {
			t.Errorf("%s: prefix %d steps, want 1", name, cp.Plan.Prefix)
		}
	}

	// The prefix rides in the cached template: a hit with other angles
	// carries the cold compile's.
	cache := NewCache(DefaultCacheSize)
	var prefixes []int
	for _, theta := range []float64{0.1, 0.7} {
		thetas := make([]float64, qasmbench.UCCSDNumParams(6))
		for i := range thetas {
			thetas[i] = theta * float64(i+1)
		}
		cp, st, err := Compile(qasmbench.BuildUCCSD(6, thetas), Config{Fuse: true, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if st.CacheHit != (theta != 0.1) || st.PrefixGates != 3 {
			t.Fatalf("theta %g: hit %v, %d prefix gates, want 3", theta, st.CacheHit, st.PrefixGates)
		}
		prefixes = append(prefixes, cp.Plan.Prefix)
	}
	if prefixes[0] != prefixes[1] {
		t.Fatalf("cache hit prefix %d, cold %d", prefixes[1], prefixes[0])
	}

	// A gadget opening on a CX ladder: the prefix stops at its first step,
	// not after the x and the two cx the stream opens with.
	g := circuit.New("gadget", 4).X(3)
	g.CX(0, 1).CX(1, 2).RZ(0.3, 2).CX(1, 2).CX(0, 1)
	cp, st, err := Compile(g, Config{Fuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Gadgets != 1 || cp.Plan.Prefix != cp.Runs[0].Step || cp.Plan.Prefix >= 3 {
		t.Fatalf("%d gadgets, first at step %d: prefix %d steps", st.Gadgets, cp.Runs[0].Step, cp.Plan.Prefix)
	}
}

// tiledSweeps counts the passes a fresh run of cp makes over the state
// when it tiles: one per tiled group, the passes of every other group.
func tiledSweeps(cp *CompiledPlan) int {
	sweeps := 0
	for _, g := range cp.Tiles.Groups {
		if g.Tiled {
			sweeps++
		} else {
			sweeps += passes(cp, g.Start, g.End)
		}
	}
	return sweeps
}

// TestThroughCXShare counts what diagonal runs through cx save a fused
// plan of each circuit svc_mixed submits: the passes of a fresh run
// (steps past the classical prefix, a run one pass) and the sweeps of its
// tiled run, before — the same plan with its stretches marked by the
// unfused rule — and after. It also pins the windows a lazy plan of
// qft_n15 on 8 ranks drops because a remap lands inside them. A
// compile-only count.
func TestThroughCXShare(t *testing.T) {
	// Sweeps are -1 where the plan does not tile (n <= 13, or a derived
	// tile as wide as the state).
	want := map[string][4]int{ // passes before, after; sweeps before, after
		"seca": {187, 108, -1, -1}, "sat": {1282, 830, -1, -1}, "cc_n12": {22, 22, -1, -1},
		"multiply": {338, 105, -1, -1}, "bv_n14": {40, 40, -1, -1}, "qf21": {286, 45, 1, 1},
		"qft_n15": {436, 31, 58, 3}, "multiplier": {450, 134, 17, 17}, "rqc": {321, 321, -1, -1},
	}
	rqc, err := qasmbench.ByName("rqc")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%-12s %6s %14s %14s %s", "circuit", "gates", "passes", "sweeps", "through cx")
	for _, e := range append(qasmbench.Medium(), rqc) {
		w, ok := want[e.Name]
		if !ok {
			t.Fatalf("suite circuit %s has no row", e.Name)
		}
		c := e.Build()
		cp, st, err := Compile(c, Config{Fuse: true})
		if err != nil {
			t.Fatal(err)
		}
		// The same plan under the unfused marking rule.
		var gadgets []fusion.Gadget
		for _, r := range cp.Runs {
			if r.Pauli != nil {
				gadgets = append(gadgets, *r.Pauli)
			}
		}
		old := *cp
		old.Runs = markRuns(cp.Circuit, gadgets, false)
		old.Tiles = BuildTilePlan(&old, 0)
		end := len(cp.Plan.Steps)
		got := [4]int{passes(&old, cp.Plan.Prefix, end), passes(cp, cp.Plan.Prefix, end), -1, -1}
		if cp.Tiles != nil {
			got[2], got[3] = tiledSweeps(&old), tiledSweeps(cp)
		}
		t.Logf("%-12s %6d %6d -> %-5d %6d -> %-5d %d of %d runs", e.Name, c.NumGates(), got[0], got[1], got[2], got[3], st.ThroughCX, st.DiagRuns)
		if got != w {
			t.Errorf("%s: passes %d -> %d, sweeps %d -> %d; want %v", e.Name, got[0], got[1], got[2], got[3], w)
		}
		if got[1] > got[0] || got[3] > got[2] {
			t.Errorf("%s: runs through cx add passes", e.Name)
		}
	}

	// qft_n15 runs as 15 h and 16 diagonal passes: the 14 ladders, each
	// one window of its lowered cu1s, the stretch of u1s fusion leaves
	// behind the last h, and one lone u1 ahead of the first. A lazy plan
	// on 8 ranks remaps twice, both times between windows, so it drops
	// none.
	lowered, err := qasmbench.ByName("qft_n15")
	if err != nil {
		t.Fatal(err)
	}
	c := lowered.Build()
	cp, st, err := Compile(c, Config{Fuse: true, Sched: sched.Lazy, PEs: 8})
	if err != nil {
		t.Fatal(err)
	}
	dropped := len(DiagRuns(cp.Circuit, true)) - st.DiagRuns
	t.Logf("qft_n15 scale-out x8 lazy: %d runs (%d through cx), %d windows dropped, %d remaps", st.DiagRuns, st.ThroughCX, dropped, st.Remaps)
	if dropped != 0 || st.ThroughCX != 14 || st.Remaps != 2 {
		t.Errorf("qft_n15 lazy x8: %d windows dropped", dropped)
	}
}
