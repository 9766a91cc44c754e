package core

import (
	"math/rand"
	"testing"

	"svsim/internal/compile"
	"svsim/internal/sched"
)

// TestFusedBackendsAgree is the cross-backend fusion equivalence sweep:
// with Fuse on, every backend × schedule combination must reproduce the
// fused single-device reference exactly (same classical bits, states
// within kernel rounding), and the fused run must agree with the unfused
// one on the same backend — -fuse changes the gate stream, never the
// simulated physics.
func TestFusedBackendsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 7
	for trial := 0; trial < 3; trial++ {
		c := randomCircuit(rng, n, 120)
		ref, err := NewSingleDevice(Config{Seed: 5, Fuse: true}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		unfused, err := NewSingleDevice(Config{Seed: 5}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		// Fusion re-associates the arithmetic, so fused-vs-unfused is a
		// tolerance comparison; everything downstream of the fused stream
		// must then match the fused reference bit-for-bit or near it.
		if d := ref.State.MaxAbsDiff(unfused.State); d > 1e-9 {
			t.Fatalf("trial %d: fused single-device deviates from unfused by %g", trial, d)
		}
		if ref.Compile.Fusion.OutputGates >= ref.Compile.Fusion.InputGates {
			t.Fatalf("trial %d: fusion did not shrink the stream (%d -> %d)",
				trial, ref.Compile.Fusion.InputGates, ref.Compile.Fusion.OutputGates)
		}
		for _, pol := range []sched.Policy{sched.Naive, sched.Lazy} {
			for _, pes := range []int{2, 4} {
				for _, coal := range []bool{false, true} {
					var b Backend
					cfg := Config{Seed: 5, PEs: pes, Fuse: true, Sched: pol, Coalesced: coal}
					if coal {
						b = NewScaleOut(cfg)
					} else {
						b = NewScaleUp(cfg)
					}
					got, err := b.Run(c)
					if err != nil {
						t.Fatal(err)
					}
					if d := got.State.MaxAbsDiff(ref.State); d > 1e-10 {
						t.Fatalf("trial %d %s pes=%d coalesced=%v sched=%s fused: deviates by %g",
							trial, b.Name(), pes, coal, pol, d)
					}
				}
			}
		}
		th, err := Run("threaded", Config{Seed: 5, PEs: 4, Fuse: true}, c)
		if err != nil {
			t.Fatal(err)
		}
		if d := th.State.MaxAbsDiff(ref.State); d > 1e-10 {
			t.Fatalf("trial %d threaded fused: deviates by %g", trial, d)
		}
	}
	// Lowered circuits, whose fused plans run their cu1 and ccx windows
	// as diagonal passes through cx: on a naive fleet a window's cx on a
	// rank bit runs inside a local diagonal step, on a lazy one a window
	// a remap falls into runs gate by gate.
	for _, name := range []string{"qft_n15", "multiplier"} {
		c := lowered(t, name)
		ref, err := NewSingleDevice(Config{Seed: 5, Fuse: true}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Compile.ThroughCX == 0 {
			t.Fatalf("%s: the fused plan holds no run through cx", name)
		}
		for _, pol := range []sched.Policy{sched.Naive, sched.Lazy} {
			for _, pes := range []int{2, 4} {
				got, err := Run("scale-out", Config{Seed: 5, PEs: pes, Fuse: true, Sched: pol}, c)
				if err != nil {
					t.Fatal(err)
				}
				if d := got.State.MaxAbsDiff(ref.State); d > 1e-10 {
					t.Fatalf("%s scale-out pes=%d sched=%s fused: deviates by %g", name, pes, pol, d)
				}
			}
		}
		th, err := Run("threaded", Config{Seed: 5, PEs: 2, Fuse: true}, c)
		if err != nil {
			t.Fatal(err)
		}
		if d := th.State.MaxAbsDiff(ref.State); d > 1e-10 {
			t.Fatalf("%s threaded fused: deviates by %g", name, d)
		}
	}
}

// TestLazyFusedMatchesNaiveFused pins the -fuse/-sched lazy interaction
// the compile pipeline fixed: both policies now fuse through the same
// block-aware pass, so their states must agree and no fused span may
// straddle a remap.
func TestLazyFusedMatchesNaiveFused(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 8
	for trial := 0; trial < 3; trial++ {
		c := randomCircuit(rng, n, 100)
		naive, err := NewScaleOut(Config{Seed: 9, PEs: 4, Fuse: true, Sched: sched.Naive, Coalesced: true}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := NewScaleOut(Config{Seed: 9, PEs: 4, Fuse: true, Sched: sched.Lazy, Coalesced: true}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if d := lazy.State.MaxAbsDiff(naive.State); d > 1e-10 {
			t.Fatalf("trial %d: lazy+fuse deviates from naive+fuse by %g", trial, d)
		}
		cp, _, err := compile.Compile(c, compile.Config{Fuse: true, Sched: sched.Lazy, PEs: 4})
		if err != nil {
			t.Fatal(err)
		}
		for si, span := range cp.Spans {
			for _, b := range cp.Boundaries {
				if span.Crosses(b) {
					t.Fatalf("trial %d: fused op %d (source %d..%d) straddles remap boundary %d",
						trial, si, span.First, span.Last, b)
				}
			}
		}
	}
}

// TestSharedPlanCacheAcrossRuns: two runs of the same shape through one
// cache compile once; the second run reports a verified hit and matches
// the first bit-for-bit.
func TestSharedPlanCacheAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	plans := compile.NewCache(compile.DefaultCacheSize)
	c := randomCircuit(rng, 7, 80)
	first, err := NewSingleDevice(Config{Seed: 2, Fuse: true, Plans: plans}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	second, err := NewSingleDevice(Config{Seed: 2, Fuse: true, Plans: plans}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if first.Compile.CacheHit {
		t.Fatal("first run hit an empty cache")
	}
	if !second.Compile.CacheHit {
		t.Fatal("second run of the same shape missed the plan cache")
	}
	if d := second.State.MaxAbsDiff(first.State); d != 0 {
		t.Fatalf("cache-hit run deviates from the cold run by %g", d)
	}
	if st := plans.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("cache stats %+v, want 1 miss / 1 hit", st)
	}
}
