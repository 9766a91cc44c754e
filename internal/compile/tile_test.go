package compile

import (
	"math/rand"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/gate"
	"svsim/internal/sched"
)

// checkTileInvariants asserts the structural properties every tile plan
// must satisfy: groups partition the step list exactly once and in
// order, tiled groups hold at least two compatible unitary gate steps,
// and no group — tiled or not — spans a remap or alias step (those are
// always singletons, so tiling can never cross a schedule-block
// boundary).
func checkTileInvariants(t *testing.T, cp *CompiledPlan) {
	t.Helper()
	tp := cp.Tiles
	if tp == nil {
		t.Fatal("compiled with a tile below the window: Tiles is nil")
	}
	if tp.TileBits < 1 || tp.TileBits >= cp.LocalBits {
		t.Fatalf("tile bits %d outside [1, %d)", tp.TileBits, cp.LocalBits)
	}
	steps := cp.Plan.Steps
	pos := cp.Plan.Prefix
	for gi, grp := range tp.Groups {
		if grp.Start != pos {
			t.Fatalf("group %d starts at %d, want %d (groups must partition the steps past the prefix)", gi, grp.Start, pos)
		}
		if grp.End <= grp.Start {
			t.Fatalf("group %d is empty: [%d, %d)", gi, grp.Start, grp.End)
		}
		pos = grp.End
		if grp.Tiled && grp.End-grp.Start < 2 {
			t.Fatalf("group %d is tiled with only %d step(s)", gi, grp.End-grp.Start)
		}
		if !grp.Tiled && grp.End-grp.Start > 1 && (len(cp.Runs) == 0 || !containsRun(cp.Runs, grp)) {
			t.Fatalf("untiled group %d [%d,%d) is not a single step or run", gi, grp.Start, grp.End)
		}
		for si := grp.Start; si < grp.End; si++ {
			isBoundary := steps[si].Kind == sched.StepRemap || steps[si].Kind == sched.StepAlias
			if isBoundary && grp.End-grp.Start > 1 {
				t.Fatalf("group %d [%d,%d) spans a remap/alias step at %d", gi, grp.Start, grp.End, si)
			}
			if grp.Tiled {
				if steps[si].Kind != sched.StepGate {
					t.Fatalf("tiled group %d contains non-gate step %d", gi, si)
				}
				k := cp.Circuit.Ops[steps[si].Op].G.Kind
				if !k.Unitary() {
					t.Fatalf("tiled group %d contains non-unitary op %s at step %d", gi, k, si)
				}
			}
		}
	}
	if pos != len(steps) {
		t.Fatalf("groups cover %d of %d steps", pos, len(steps))
	}
	// A diagonal run is one member: no group edge falls inside it, and
	// one group holds at most maxGroupRuns of them.
	gi, held := 0, 0
	for _, run := range cp.Runs {
		for tp.Groups[gi].End <= run.Step {
			gi, held = gi+1, 0
		}
		if grp := tp.Groups[gi]; run.Step+run.Gates > grp.End {
			t.Fatalf("run %+v straddles the end of group [%d,%d)", run, grp.Start, grp.End)
		}
		if held++; held > maxGroupRuns {
			t.Fatalf("group %d holds %d prepared runs, cap %d", gi, held, maxGroupRuns)
		}
	}
}

// containsRun reports whether grp is exactly one diagonal run.
func containsRun(runs []Run, grp TileGroup) bool {
	for _, run := range runs {
		if run.Step == grp.Start && run.Step+run.Gates == grp.End {
			return true
		}
	}
	return false
}

// randomMixedCircuit builds a circuit over all unitary kinds plus
// measurements and resets, so tile plans must break around non-unitary
// ops.
func randomMixedCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	var kinds []gate.Kind
	for i := 0; i < gate.NumKinds; i++ {
		k := gate.Kind(i)
		if k.Unitary() && k != gate.BARRIER && k != gate.GPHASE && k.NumQubits() <= n {
			kinds = append(kinds, k)
		}
	}
	c := circuit.New("mixed", n)
	for i := 0; i < gates; i++ {
		if rng.Intn(12) == 0 {
			q := rng.Intn(n)
			if rng.Intn(2) == 0 {
				c.Measure(q, q%8)
			} else {
				c.Reset(q)
			}
			continue
		}
		k := kinds[rng.Intn(len(kinds))]
		perm := rng.Perm(n)
		ps := make([]float64, k.NumParams())
		for j := range ps {
			ps[j] = rng.Float64()*4 - 2
		}
		c.Append(gate.New(k, perm[:k.NumQubits()], ps...))
	}
	return c
}

// TestTilePlanInvariants fuzzes tile plans across policies, fusion, and
// partition geometries.
func TestTilePlanInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		c := randomMixedCircuit(rng, 8, 80)
		for _, pes := range []int{1, 4} {
			for _, fuse := range []bool{false, true} {
				for _, pol := range []sched.Policy{sched.Naive, sched.Lazy} {
					cp, _, err := Compile(c, Config{
						Fuse: fuse, Sched: pol, PEs: pes, TileBits: 3,
					})
					if err != nil {
						t.Fatal(err)
					}
					checkTileInvariants(t, cp)
				}
			}
		}
	}
}

// TestTilePlanRespectsRemapBoundaries pins the boundary property on a
// shape guaranteed to produce remaps: under the lazy policy with PEs=4,
// groups never contain a remap step alongside gates, and the plan walk
// judges compatibility against post-remap physical positions.
func TestTilePlanRespectsRemapBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sawRemap := false
	for trial := 0; trial < 10; trial++ {
		c := testAnsatz(8, randomParams(rng, 5))
		cp, _, err := Compile(c, Config{Fuse: true, Sched: sched.Lazy, PEs: 4, TileBits: 3})
		if err != nil {
			t.Fatal(err)
		}
		checkTileInvariants(t, cp)
		for _, step := range cp.Plan.Steps {
			if step.Kind == sched.StepRemap {
				sawRemap = true
			}
		}
	}
	if !sawRemap {
		t.Fatal("no trial produced a remap step; the boundary test is vacuous")
	}
}

// TestTilePlanNeverSplitsFusedGate: a fused gate is one executable op,
// so it maps to one plan step; the partition property then guarantees
// exactly one group contains it. Verified directly against the fusion
// spans.
func TestTilePlanNeverSplitsFusedGate(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := testAnsatz(8, randomParams(rng, 7))
	cp, _, err := Compile(c, Config{Fuse: true, TileBits: 3, PEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkTileInvariants(t, cp)
	if len(cp.Spans) == 0 {
		t.Fatal("fusion produced no spans; test is vacuous")
	}
	owner := make(map[int]int) // op index -> owning group
	for gi, grp := range cp.Tiles.Groups {
		for si := grp.Start; si < grp.End; si++ {
			oi := cp.Plan.Steps[si].Op
			if prev, dup := owner[oi]; dup {
				t.Fatalf("fused op %d appears in groups %d and %d", oi, prev, gi)
			}
			owner[oi] = gi
		}
	}
	for oi := range cp.Spans {
		if _, ok := owner[oi]; !ok {
			t.Fatalf("fused op %d not covered by any tile group", oi)
		}
	}
}

// TestDeriveTileBitsWidens checks the tile-size derivation: a circuit
// whose only high-stride gates sit exactly at DefaultTileBits gets a
// one-bit-wider tile (absorbing the straddlers), while targets above
// MaxTileBits stay straddlers rather than blowing the cache budget.
func TestDeriveTileBitsWidens(t *testing.T) {
	n := 16
	c := circuit.New("widen", n)
	for i := 0; i < 4; i++ {
		c.H(DefaultTileBits) // straddler at 13 unless the tile widens to 14
		c.H(0)
		c.H(1)
	}
	cp, _, err := Compile(c, Config{PEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cp.Tiles.TileBits != DefaultTileBits+1 {
		t.Fatalf("tile bits = %d, want %d (widen to absorb stride-13 straddlers)",
			cp.Tiles.TileBits, DefaultTileBits+1)
	}
	if cp.Tiles.Straddlers != 0 {
		t.Fatalf("straddlers = %d after widening, want 0", cp.Tiles.Straddlers)
	}

	c2 := circuit.New("capped", n)
	for i := 0; i < 4; i++ {
		c2.H(n - 1) // above MaxTileBits: widening cannot absorb it
		c2.H(0)
		c2.H(1)
	}
	cp2, _, err := Compile(c2, Config{PEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cp2.Tiles.TileBits != DefaultTileBits {
		t.Fatalf("tile bits = %d, want %d (no profitable widening)", cp2.Tiles.TileBits, DefaultTileBits)
	}
	if cp2.Tiles.Straddlers != 4 {
		t.Fatalf("straddlers = %d, want 4", cp2.Tiles.Straddlers)
	}
}

// TestTileBitsOverrideClamped checks explicit TileBits handling: a tile
// at least as large as the rank's window (on one rank or several) is the
// whole window, which attaches no tile plan; a smaller one is kept.
func TestTileBitsOverrideClamped(t *testing.T) {
	c := circuit.New("small", 4)
	c.H(0).H(1).H(2)
	for _, tc := range []struct{ pes, tileBits, want int }{
		{1, 20, 0}, {1, 4, 0}, {1, 2, 2}, {1, 3, 3}, {4, 2, 0}, {4, 1, 1}, {2, 0, 0},
	} {
		cp, _, err := Compile(c, Config{TileBits: tc.tileBits, PEs: tc.pes})
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		if cp.Tiles != nil {
			got = cp.Tiles.TileBits
		}
		if got != tc.want {
			t.Errorf("pes=%d TileBits=%d: tile bits %d, want %d (0 = no tile plan)", tc.pes, tc.tileBits, got, tc.want)
		}
	}
}

// TestTilePlanOnCacheHit: tile plans are built per compile call, so a
// cache hit with a tile smaller than the window must still carry a
// TilePlan, and one whose window is a single tile must not.
func TestTilePlanOnCacheHit(t *testing.T) {
	cache := NewCache(DefaultCacheSize)
	c := testAnsatz(6, []float64{0.3})
	cp, _, err := Compile(c, Config{TileBits: 2, PEs: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	checkTileInvariants(t, cp)
	cp2, cst, err := Compile(testAnsatz(6, []float64{0.7}), Config{TileBits: 2, PEs: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !cst.CacheHit {
		t.Fatal("expected a cache hit")
	}
	checkTileInvariants(t, cp2)
	cp3, cst, err := Compile(testAnsatz(6, []float64{0.9}), Config{PEs: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !cst.CacheHit {
		t.Fatal("expected a cache hit")
	}
	if cp3.Tiles != nil {
		t.Fatal("one-tile window: hit must not carry the previous run's tile plan")
	}
}

// TestTileGroupRunCap: every gate of this circuit is tile-compatible, so
// without a bound one group would keep all 600 of its diagonal runs
// prepared at once; the cap cuts it into groups of maxGroupRuns, each
// edge between two members.
func TestTileGroupRunCap(t *testing.T) {
	c := circuit.New("many_runs", 16)
	for i := 0; i < 600; i++ {
		c.H(0).T(1).T(2)
	}
	cp, _, err := Compile(c, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Runs) != 600 {
		t.Fatalf("want 600 runs, got %d", len(cp.Runs))
	}
	checkTileInvariants(t, cp)
	if n, want := len(cp.Tiles.Groups), (600+maxGroupRuns-1)/maxGroupRuns; n != want {
		t.Fatalf("600 runs in %d group(s), want %d", n, want)
	}
}
