package compile

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/ckpt"
	"svsim/internal/fusion"
	"svsim/internal/gate"
	"svsim/internal/obs"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
)

// testAnsatz builds a fixed-shape parameterized circuit: three layers of
// per-qubit U3 rotations plus a CX entangler ring. With n=8 and PEs=4
// (localBits=6) the gates on qubits 6 and 7 demand locality, so a lazy
// schedule contains remaps and block-aware fusion has boundaries to
// respect.
func testAnsatz(n int, params []float64) *circuit.Circuit {
	c := circuit.New("ansatz", n)
	pi := 0
	next := func() float64 {
		v := params[pi%len(params)]
		pi++
		return v
	}
	for layer := 0; layer < 3; layer++ {
		for q := 0; q < n; q++ {
			c.U3(next(), next(), next(), q)
		}
		for q := 0; q < n-1; q++ {
			c.CX(q, q+1)
		}
		c.CX(n-1, 0)
	}
	return c
}

func randomParams(rng *rand.Rand, n int) []float64 {
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = (rng.Float64()*2 - 1) * 2 * math.Pi
	}
	return ps
}

func TestSkeletonFingerprintIgnoresParams(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := testAnsatz(6, randomParams(rng, 9))
	b := testAnsatz(6, randomParams(rng, 9))
	if SkeletonFingerprint(a) != SkeletonFingerprint(b) {
		t.Fatal("same shape, different parameters: skeleton fingerprints differ")
	}
	c := testAnsatz(6, randomParams(rng, 9))
	c.H(0)
	if SkeletonFingerprint(a) == SkeletonFingerprint(c) {
		t.Fatal("different shapes share a skeleton fingerprint")
	}
	if a.Name == b.Name {
		b.Name = "renamed"
		if SkeletonFingerprint(a) != SkeletonFingerprint(b) {
			t.Fatal("circuit name leaked into the skeleton fingerprint")
		}
	}
}

// qaoaAnsatz is a fixed-shape ansatz whose parametric gates sit INSIDE
// fused runs: a QAOA-style layer (cx·rz·cx cost terms, rx mixers) followed
// by an ry·rz hardware-efficient layer, so every 1-qubit run multiplies
// several angles together. With n=8 and PEs=4 the top qubits demand
// locality, so the lazy schedule remaps and fusion is block-aware.
func qaoaAnsatz(n int, params []float64) *circuit.Circuit {
	c := circuit.New("qaoa", n)
	pi := 0
	next := func() float64 {
		v := params[pi%len(params)]
		pi++
		return v
	}
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for layer := 0; layer < 2; layer++ {
		for q := 0; q < n; q++ {
			c.CX(q, (q+1)%n).RZ(next(), (q+1)%n).CX(q, (q+1)%n)
		}
		for q := 0; q < n; q++ {
			c.RX(next(), q).RY(next(), q).RZ(next(), q)
		}
		c.Append(gate.NewCRZ(next(), 0, n-1), gate.NewRZZ(next(), 1, n-2), gate.NewCU3(next(), next(), next(), n-1, 2))
	}
	return c
}

// rebound returns c with the parameters of every parametric gate redrawn
// from pick: another binding of the same skeleton (a plain copy when pick
// is nil).
func rebound(c *circuit.Circuit, pick func() float64) *circuit.Circuit {
	out := &circuit.Circuit{Name: c.Name, NumQubits: c.NumQubits, NumClbits: c.NumClbits,
		Ops: append([]circuit.Op(nil), c.Ops...)}
	for i := range out.Ops {
		if pick == nil {
			break
		}
		g := &out.Ops[i].G
		for k := 0; k < int(g.NP); k++ {
			g.Params[k] = pick()
		}
	}
	return out
}

func generic(rng *rand.Rand) func() float64 {
	return func() float64 { return 0.05 + 3*rng.Float64() }
}

func isParametric(c *circuit.Circuit) bool {
	for i := range c.Ops {
		if c.Ops[i].G.NP > 0 {
			return true
		}
	}
	return false
}

// requirePlansEqual asserts got is bit for bit the plan want: executable
// stream (parameters compared at the bit level), classes (matrices at the
// bit level), spans, fusion stats, schedule, boundaries and geometry.
func requirePlansEqual(t *testing.T, tag string, got, want *CompiledPlan) {
	t.Helper()
	if got.PlanFP != want.PlanFP || got.SkeletonFP != want.SkeletonFP {
		t.Fatalf("%s: fingerprints diverge: plan %016x vs %016x", tag, got.PlanFP, want.PlanFP)
	}
	if got.Source != want.Source {
		t.Fatalf("%s: Source is not the circuit handed to Compile", tag)
	}
	if got.Circuit.Name != want.Circuit.Name || got.Circuit.NumQubits != want.Circuit.NumQubits ||
		got.Circuit.NumClbits != want.Circuit.NumClbits || len(got.Circuit.Ops) != len(want.Circuit.Ops) {
		t.Fatalf("%s: executable streams differ in shape: %d vs %d ops", tag, len(got.Circuit.Ops), len(want.Circuit.Ops))
	}
	for j := range got.Circuit.Ops {
		g, w := &got.Circuit.Ops[j].G, &want.Circuit.Ops[j].G
		if g.Kind != w.Kind || g.NQ != w.NQ || g.NP != w.NP || g.Cbit != w.Cbit || g.Qubits != w.Qubits {
			t.Fatalf("%s op %d: structure diverges: %v vs %v", tag, j, g, w)
		}
		for k := range g.Params {
			if math.Float64bits(g.Params[k]) != math.Float64bits(w.Params[k]) {
				t.Fatalf("%s op %d param %d: not bit-identical: %v vs %v", tag, j, k, g.Params[k], w.Params[k])
			}
		}
		if gc, wc := got.Circuit.Ops[j].Cond, want.Circuit.Ops[j].Cond; (gc == nil) != (wc == nil) || (gc != nil && *gc != *wc) {
			t.Fatalf("%s op %d: conditions differ", tag, j)
		}
	}
	if len(got.Classes) != len(want.Classes) {
		t.Fatalf("%s: class lists differ in length", tag)
	}
	for j := range got.Classes {
		g, w := got.Classes[j], want.Classes[j]
		if (g == nil) != (w == nil) {
			t.Fatalf("%s op %d: class presence differs", tag, j)
		}
		if g == nil {
			continue
		}
		if !reflect.DeepEqual(g.Ctrls, w.Ctrls) || !reflect.DeepEqual(g.Targets, w.Targets) ||
			g.Diag != w.Diag || g.U.N != w.U.N || len(g.U.Data) != len(w.U.Data) {
			t.Fatalf("%s op %d: classes differ: %+v vs %+v", tag, j, g, w)
		}
		for k := range g.U.Data {
			if math.Float64bits(real(g.U.Data[k])) != math.Float64bits(real(w.U.Data[k])) ||
				math.Float64bits(imag(g.U.Data[k])) != math.Float64bits(imag(w.U.Data[k])) {
				t.Fatalf("%s op %d: class matrix element %d not bit-identical: %v vs %v", tag, j, k, g.U.Data[k], w.U.Data[k])
			}
		}
	}
	if !reflect.DeepEqual(got.Spans, want.Spans) {
		t.Fatalf("%s: spans differ", tag)
	}
	if !reflect.DeepEqual(got.Runs, want.Runs) {
		t.Fatalf("%s: runs differ: %+v vs %+v", tag, got.Runs, want.Runs)
	}
	if got.Fusion != want.Fusion {
		t.Fatalf("%s: fusion stats differ: %+v vs %+v", tag, got.Fusion, want.Fusion)
	}
	if !reflect.DeepEqual(got.Boundaries, want.Boundaries) {
		t.Fatalf("%s: boundaries differ: %v vs %v", tag, got.Boundaries, want.Boundaries)
	}
	if !reflect.DeepEqual(got.Plan, want.Plan) {
		t.Fatalf("%s: schedules differ", tag)
	}
	if !reflect.DeepEqual(got.PermTrace, want.PermTrace) {
		t.Fatalf("%s: permutation traces differ", tag)
	}
	if len(got.Phases) != len(want.Phases) {
		t.Fatalf("%s: phase lists differ in length", tag)
	}
	for j := range got.Phases {
		gp, wp := got.Phases[j], want.Phases[j]
		if len(gp) != len(wp) {
			t.Fatalf("%s step %d: %d exchange phases, want %d", tag, j, len(gp), len(wp))
		}
		for k := range gp {
			if gp[k].Scope != wp[k].Scope || gp[k].BlockLen != wp[k].BlockLen || gp[k].RemoteElems != wp[k].RemoteElems {
				t.Fatalf("%s step %d phase %d: exchange geometry differs", tag, j, k)
			}
		}
	}
	if got.NumQubits != want.NumQubits || got.PEs != want.PEs || got.LocalBits != want.LocalBits ||
		got.Policy != want.Policy || got.Fused != want.Fused || got.Topo != want.Topo {
		t.Fatalf("%s: plan geometry differs", tag)
	}
}

// compileBoth compiles c through cfg (which carries a cache) and again
// with the cache removed, and requires the two plans to be identical.
func compileBoth(t *testing.T, tag string, c *circuit.Circuit, cfg Config) Stats {
	t.Helper()
	got, gst, err := Compile(c, cfg)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	cfg.Cache = nil
	want, wst, err := Compile(c, cfg)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	requirePlansEqual(t, tag, got, want)
	if gst.Fusion != wst.Fusion || gst.Remaps != wst.Remaps {
		t.Fatalf("%s: stats differ from a fresh compile: %+v vs %+v", tag, gst, wst)
	}
	if gst.CacheHit && (gst.FuseNS != 0 || gst.ClassifyNS != 0 || gst.PlanNS != 0 || gst.BindNS <= 0) {
		t.Fatalf("%s: a hit ran a compile stage: %+v", tag, gst)
	}
	return gst
}

// TestCacheHitRebindBitIdentical is the re-binding soundness property:
// across randomized sweeps of one skeleton, the plan a cache hit binds
// must be bit-identical to a fresh compile of the same binding. It covers
// every parametric circuit of the medium suite, UCCSD(8) (parametric
// gates only in runs of one), and two ansatz shapes whose parametric
// gates are inside fused runs — flat and under the lazy schedule on four
// partitions, fused and not.
func TestCacheHitRebindBitIdentical(t *testing.T) {
	type shape struct {
		name string
		c    *circuit.Circuit
	}
	rng := rand.New(rand.NewSource(11))
	shapes := []shape{
		{"u3-ansatz", testAnsatz(8, randomParams(rng, 7))},
		{"qaoa", qaoaAnsatz(8, randomParams(rng, 7))},
		{"uccsd8", uccsd(8, 3)},
	}
	for _, e := range qasmbench.Medium() {
		if c := e.Build(); isParametric(c) {
			shapes = append(shapes, shape{e.Name, c})
		}
		if c := e.Compact(); isParametric(c) {
			shapes = append(shapes, shape{e.Name + "/compact", c})
		}
	}
	cfgs := []Config{
		{Fuse: true},
		{Fuse: true, Sched: sched.Lazy, PEs: 4},
		{Fuse: true, Sched: sched.Lazy, PEs: 4, Topo: sched.Topology{PEsPerNode: 2}},
		{Fuse: false, Sched: sched.Lazy, PEs: 4},
	}
	const bindings = 6
	for _, sh := range shapes {
		for ci, cfg := range cfgs {
			cfg.Cache = NewCache(DefaultCacheSize)
			pick := generic(rng)
			for i := 0; i < bindings; i++ {
				tag := fmt.Sprintf("%s cfg %d binding %d", sh.name, ci, i)
				st := compileBoth(t, tag, rebound(sh.c, pick), cfg)
				if st.CacheHit != (i > 0) {
					t.Fatalf("%s: CacheHit = %v", tag, st.CacheHit)
				}
			}
			// The circuit as generated (angles like pi/4 that may cancel):
			// hit or miss, it must equal a fresh compile.
			compileBoth(t, sh.name+" as generated", sh.c, cfg)
			if cs := cfg.Cache.Stats(); cs.Hits < bindings-1 || cs.Hits+cs.Misses != bindings+1 {
				t.Fatalf("%s cfg %d: cache stats %+v", sh.name, ci, cs)
			}
		}
	}
}

// TestDegenerateBindingIsCountedMiss: a binding whose angles change what
// fusion emits (a rotation by zero, a run collapsing to the identity, a
// global phase appearing or vanishing) cannot be bound into the cached
// template. It must be reported and counted as a miss, equal a fresh
// compile, and the next generic binding of the skeleton must hit again —
// whichever of the two the cache saw first. The odd binding's own plan is
// kept beside the generic one, so seeing it again hits too. A degenerate
// angle at the core of a Pauli gadget is no such binding: rz(0) and
// rz(2 pi) inside a window are the same one pass (with cos = ±1, sin = 0),
// so a UCCSD sweep through such a point keeps hitting.
func TestDegenerateBindingIsCountedMiss(t *testing.T) {
	// shape(a, b, c, d): q0 carries rx(a) alone, q1 the run rz(b)·rz(c),
	// q2 the run h·ry(d)·h, q3 the run rz(b)·rx(a); the global phase the
	// fused stream carries is a function of b+c. phase >= 0 appends a
	// gphase op (part of the skeleton).
	shape := func(a, b, c, d, phase float64) *circuit.Circuit {
		k := circuit.New("degenerate", 4)
		k.RX(a, 0).CX(0, 1)
		k.RZ(b, 1).RZ(c, 1).CX(1, 2)
		k.H(2).RY(d, 2).H(2).CX(2, 3)
		k.RZ(b, 3).RX(a, 3).CX(3, 0)
		k.Append(gate.NewGPhase(phase))
		return k
	}
	generics := []*circuit.Circuit{shape(0.3, 0.7, 1.1, 0.4, 0.25), shape(1.3, 0.2, 2.1, 0.9, 0.5), shape(0.8, 1.7, 0.6, 2.2, 0.75)}
	// The gphase that cancels what the fused runs of generics[0] add up to.
	fused, _ := fusion.Optimize(generics[0])
	residue := fused.Ops[len(fused.Ops)-1].G
	if residue.Kind != gate.GPHASE {
		t.Fatal("the generic shape carries no global phase; the threshold case is vacuous")
	}
	// UCCSD(4): four singles (rz(±t)) and one double (rz(±t/4)).
	uccsd4 := func(t0, t4 float64) *circuit.Circuit {
		return qasmbench.BuildUCCSD(4, []float64{t0, 0.4, 0.9, 1.3, t4})
	}
	sweep := []*circuit.Circuit{uccsd4(0.3, 0.7), uccsd4(1.1, 0.2), uccsd4(0.6, 1.9)}
	cases := []struct {
		name        string
		c           *circuit.Circuit
		unfusedMiss bool               // the binding also flips a gate's own diagonality
		generics    []*circuit.Circuit // the sweep the binding belongs to
		fits        bool               // the binding is no miss at all
	}{
		{"rx(0)", shape(0, 0.7, 1.1, 0.4, 0.25), true, generics, false},
		{"rx(2pi)", shape(2*math.Pi, 0.7, 1.1, 0.4, 0.25), false, generics, false},
		{"rz(t)rz(-t)", shape(0.3, 0.7, -0.7, 0.4, 0.25), false, generics, false},
		{"h ry(0) h", shape(0.3, 0.7, 1.1, 0, 0.25), true, generics, false},
		{"phase sum under 1e-12", shape(0.3, 0.7, 1.1, 0.4, 0.25-residue.Params[0]), false, generics, false},
		{"uccsd gadget core rz(0)", uccsd4(0, 0), false, sweep, true},
		{"uccsd gadget core rz(2pi)", uccsd4(2*math.Pi, 8*math.Pi), false, sweep, true},
	}
	for _, cfg := range []Config{{Fuse: true}, {Fuse: true, Sched: sched.Lazy, PEs: 4}, {Fuse: false, Sched: sched.Lazy, PEs: 2}} {
		for _, tc := range cases {
			for _, degFirst := range []bool{false, true} {
				cfg.Cache = NewCache(DefaultCacheSize)
				tag := fmt.Sprintf("%s (degenerate first: %v, fuse %v, %d PEs)", tc.name, degFirst, cfg.Fuse, cfg.PEs)
				order := []*circuit.Circuit{tc.generics[0], tc.c, tc.generics[1], tc.generics[2], tc.c}
				if degFirst {
					order[0], order[1] = order[1], order[0]
				}
				wantHit := []bool{false, false, true, true, true}
				if tc.fits || !cfg.Fuse && !tc.unfusedMiss {
					wantHit[1] = true // unfused, only a gate's own diagonality matters
				}
				var hits, misses int64
				for i, c := range order {
					st := compileBoth(t, tag, c, cfg)
					if st.CacheHit != wantHit[i] {
						t.Fatalf("%s: compile %d: CacheHit = %v, want %v", tag, i, st.CacheHit, wantHit[i])
					}
					if wantHit[i] {
						hits++
					} else {
						misses++
					}
				}
				if cs := cfg.Cache.Stats(); cs.Hits != hits || cs.Misses != misses || cs.Entries != 1 {
					t.Fatalf("%s: cache reads %+v, want %d hits / %d misses in 1 entry", tag, cs, hits, misses)
				}
			}
		}
	}
}

// TestKeyCollisionIsAMiss forces two different skeletons of equal length
// onto one cache key — the key's word mix is invertible and a condition's
// value is a free 64-bit word, so such a pair can be built, by another
// tenant of a shared cache too. A hit copies the template's constant
// gates, so the second circuit must be refused by the entry's second hash
// and compiled on its own; both then hit their own template.
func TestKeyCollisionIsAMiss(t *testing.T) {
	shape := func(theta float64, second gate.Gate, value uint64) *circuit.Circuit {
		k := circuit.New("collide", 3)
		k.RX(theta, 0).Append(second)
		k.CX(0, 1).Measure(2, 0)
		k.AppendCond(gate.NewX(1), circuit.Condition{Offset: 0, Width: 1, Value: value})
		return k
	}
	a := shape(0.3, gate.NewH(1), 1)
	// The condition's value is the last word mixed: undo that step on both
	// fingerprints and pick the value that takes b's state to a's.
	const m = 0xff51afd7ed558ccd
	inv := uint64(m) // Newton's iteration for the inverse of an odd m mod 2^64
	for i := 0; i < 6; i++ {
		inv *= 2 - m*inv
	}
	unmix := func(h uint64) uint64 { return (h ^ h>>32) * inv }
	value := unmix(SkeletonFingerprint(shape(0.3, gate.NewZ(1), 0))) ^ unmix(SkeletonFingerprint(a))
	b := shape(0.3, gate.NewZ(1), value)
	if SkeletonFingerprint(a) != SkeletonFingerprint(b) {
		t.Fatal("the constructed pair does not collide; the test is vacuous")
	}
	root := NewCache(DefaultCacheSize)
	cfgA, cfgB := Config{Fuse: true, Cache: root.View("a")}, Config{Fuse: true, Cache: root.View("b")}
	for i, tc := range []struct {
		c   *circuit.Circuit
		cfg Config
		hit bool
	}{
		{a, cfgA, false},
		{b, cfgB, false},
		{shape(0.9, gate.NewH(1), 1), cfgA, true},
		{shape(1.4, gate.NewZ(1), value), cfgB, true},
	} {
		if st := compileBoth(t, fmt.Sprintf("compile %d", i), tc.c, tc.cfg); st.CacheHit != tc.hit {
			t.Fatalf("compile %d: CacheHit = %v, want %v", i, st.CacheHit, tc.hit)
		}
	}
	if cs := root.Stats(); cs.Entries != 1 || cs.Hits != 2 || cs.Misses != 2 || cs.CrossLabelHits != 0 {
		t.Fatalf("cache reads %+v, want both skeletons under one key, 2 hits / 2 misses, none cross-label", cs)
	}
}

// planChecksum folds every op and class a plan exposes into one number.
func planChecksum(cp *CompiledPlan) uint64 {
	h := ckpt.NewHash()
	for i := range cp.Circuit.Ops {
		g := &cp.Circuit.Ops[i].G
		h.U64(uint64(g.Kind))
		for _, q := range g.OperandQubits() {
			h.U64(uint64(q))
		}
		for _, p := range g.Params {
			h.U64(math.Float64bits(p))
		}
		if cl := cp.Classes[i]; cl != nil {
			for _, v := range cl.U.Data {
				h.U64(math.Float64bits(real(v)))
				h.U64(math.Float64bits(imag(v)))
			}
			if cl.Diag {
				h.U64(1)
			}
		}
	}
	return uint64(h)
}

// TestConcurrentRebindSharesTemplateReadOnly drives 8 goroutines x 50
// distinct bindings through one cache (run it under -race): every hit
// must equal a fresh compile while the template — the first caller's
// plan, whose ops and classes every hit shares — is never written.
func TestConcurrentRebindSharesTemplateReadOnly(t *testing.T) {
	for _, cfg := range []Config{{Fuse: true}, {Fuse: true, Sched: sched.Lazy, PEs: 4}} {
		cfg.Cache = NewCache(DefaultCacheSize)
		rng := rand.New(rand.NewSource(71))
		base := qaoaAnsatz(8, randomParams(rng, 9))
		tmpl, _, err := Compile(rebound(base, generic(rng)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := planChecksum(tmpl)
		const workers, each = 8, 50
		circs := make([]*circuit.Circuit, workers*each)
		for i := range circs {
			circs[i] = rebound(base, generic(rng))
		}
		sums := make([]uint64, len(circs))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w * each; i < (w+1)*each; i++ {
					cp, st, err := Compile(circs[i], cfg)
					if err != nil || !st.CacheHit {
						t.Errorf("binding %d: hit=%v err=%v", i, st.CacheHit, err)
						return
					}
					sums[i] = planChecksum(cp)
				}
			}(w)
		}
		wg.Wait()
		if after := planChecksum(tmpl); after != before {
			t.Fatalf("template changed under concurrent hits: %016x -> %016x", before, after)
		}
		fresh := cfg
		fresh.Cache = nil
		for i, c := range circs {
			want, _, err := Compile(c, fresh)
			if err != nil {
				t.Fatal(err)
			}
			if sums[i] != planChecksum(want) {
				t.Fatalf("binding %d: concurrent hit differs from a fresh compile", i)
			}
		}
		if cs := cfg.Cache.Stats(); cs.Misses != 1 || cs.Hits != workers*each {
			t.Fatalf("cache stats %+v", cs)
		}
	}
}

// TestHitAllocationsIndependentOfSize: a hit allocates slabs (the op
// copy, the class pointers, the bound classes and their matrices), never
// per-gate objects, so the count is the same small constant for the
// 1,6xx-gate UCCSD(6) and the 19,255-gate UCCSD(10).
func TestHitAllocationsIndependentOfSize(t *testing.T) {
	allocs := func(n int) float64 {
		cfg := Config{Fuse: true, Cache: NewCache(1)}
		if _, _, err := Compile(uccsd(n, 1), cfg); err != nil {
			t.Fatal(err)
		}
		c := uccsd(n, 2)
		return testing.AllocsPerRun(20, func() {
			if _, st, err := Compile(c, cfg); err != nil || !st.CacheHit {
				t.Fatalf("hit=%v err=%v", st.CacheHit, err)
			}
		})
	}
	a6, a10 := allocs(6), allocs(10)
	if a6 != a10 || a10 > 8 {
		t.Fatalf("allocations per hit: UCCSD(6) %v, UCCSD(10) %v; want the same constant <= 8", a6, a10)
	}
}

// TestPlanFingerprintGolden pins PlanFingerprint to the value hash/fnv
// produced before the hash was inlined: checkpoint manifests record it.
func TestPlanFingerprintGolden(t *testing.T) {
	e, err := qasmbench.ByName("qft_n15")
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := Compile(e.Build(), Config{Fuse: true, Sched: sched.Lazy, PEs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(0x55e1f47b969a3350); cp.PlanFP != want || PlanFingerprint(cp.Plan, 8) != want {
		t.Fatalf("PlanFingerprint(qft_n15, lazy, 8 PEs) = %#016x, want %#016x", cp.PlanFP, want)
	}
}

// TestNoFusedBlockStraddlesRemap is the block-aware fusion regression:
// under the lazy policy with fusion on, no fused gate's source span may
// cross a remap boundary.
func TestNoFusedBlockStraddlesRemap(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	sawBoundary := false
	for trial := 0; trial < 10; trial++ {
		c := testAnsatz(8, randomParams(rng, 5))
		cp, _, err := Compile(c, Config{Fuse: true, Sched: sched.Lazy, PEs: 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(cp.Boundaries) > 0 {
			sawBoundary = true
		}
		for si, span := range cp.Spans {
			for _, b := range cp.Boundaries {
				if span.Crosses(b) {
					t.Fatalf("trial %d: fused op %d (source ops %d..%d) straddles remap boundary %d",
						trial, si, span.First, span.Last, b)
				}
			}
		}
		// Cross-check against the plan itself: every remap step's demanding
		// gate must open a fused span, never land inside one.
		for _, b := range remapBoundaries(cp.Plan) {
			for si, span := range cp.Spans {
				if span.Crosses(b) {
					t.Fatalf("trial %d: executable op %d straddles final-plan remap at source op %d",
						trial, si, b)
				}
			}
		}
	}
	if !sawBoundary {
		t.Fatal("no trial produced a remap boundary; the regression test is vacuous")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	cache := NewCache(2)
	cfg := Config{Fuse: true, Sched: sched.Lazy, PEs: 2, Cache: cache}
	shapes := []*circuit.Circuit{
		testAnsatz(6, []float64{0.1}),
		testAnsatz(7, []float64{0.2}),
		testAnsatz(8, []float64{0.3}),
	}
	for _, c := range shapes {
		if _, _, err := Compile(c, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if st := cache.Stats(); st.Entries != 2 || st.Misses != 3 {
		t.Fatalf("after 3 distinct shapes with cap 2: %+v", st)
	}
	// Shape 0 is the LRU victim; recompiling it must miss again.
	if _, cst, err := Compile(shapes[0], cfg); err != nil || cst.CacheHit {
		t.Fatalf("evicted shape reported a hit (err=%v)", err)
	}
	// Shape 2 is still resident.
	if _, cst, err := Compile(shapes[2], cfg); err != nil || !cst.CacheHit {
		t.Fatalf("resident shape missed (err=%v)", err)
	}
}

func TestCompileMetricsCounters(t *testing.T) {
	m := obs.NewMetrics()
	cache := NewCache(DefaultCacheSize)
	cfg := Config{Fuse: true, Sched: sched.Lazy, PEs: 4, Cache: cache, Metrics: m}
	rng := rand.New(rand.NewSource(41))
	const points = 8
	for i := 0; i < points; i++ {
		if _, _, err := Compile(testAnsatz(8, randomParams(rng, 4)), cfg); err != nil {
			t.Fatal(err)
		}
	}
	if v := m.Counter(obs.MetricPlanCacheHits).Value(); v != points-1 {
		t.Fatalf("plan_cache_hits = %d, want %d", v, points-1)
	}
	if v := m.Counter(obs.MetricPlanCacheMisses).Value(); v != 1 {
		t.Fatalf("plan_cache_misses = %d, want 1", v)
	}
	if v := m.Counter(obs.MetricCompileNS).Value(); v <= 0 {
		t.Fatalf("compile_ns = %d, want > 0", v)
	}
	// The hits' time is in the bind stage, and only there.
	bind := m.Counter(obs.MetricCompileBindNS).Value()
	if total := m.Counter(obs.MetricCompileNS).Value(); bind <= 0 || bind > total {
		t.Fatalf("compile_bind_ns = %d of compile_ns = %d", bind, total)
	}
}

func TestCompileRejectsInvalidGeometry(t *testing.T) {
	c := testAnsatz(6, []float64{0.5})
	if _, _, err := Compile(c, Config{PEs: 3}); err == nil {
		t.Fatal("PEs=3 accepted")
	}
	if _, _, err := Compile(c, Config{PEs: 128}); err == nil {
		t.Fatal("more partitions than amplitudes accepted")
	}
}

// TestConcurrentCompileSingleFlight pins the property the batch sweep
// acceptance depends on: N workers compiling one shape concurrently
// through a shared cache produce exactly one miss, no matter how the
// goroutines interleave.
func TestConcurrentCompileSingleFlight(t *testing.T) {
	cache := NewCache(DefaultCacheSize)
	rng := rand.New(rand.NewSource(53))
	const workers = 8
	circs := make([]*circuit.Circuit, workers)
	for i := range circs {
		circs[i] = testAnsatz(8, randomParams(rng, 6))
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = Compile(circs[i], Config{
				Fuse: true, Sched: sched.Lazy, PEs: 4, Cache: cache,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits != workers-1 {
		t.Fatalf("concurrent fixed-shape sweep: want 1 miss / %d hits, got %d / %d",
			workers-1, st.Misses, st.Hits)
	}
}
