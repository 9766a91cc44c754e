package main

import (
	"strings"
	"testing"
	"time"

	"svsim/internal/obs"
)

// TestScenarioDeterminism: the same seed must derive the same scenario
// every time, or printed repro commands would be useless.
func TestScenarioDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a, b := buildScenario(seed, 60, 2*time.Second), buildScenario(seed, 60, 2*time.Second)
		if a.String() != b.String() {
			t.Fatalf("seed %d: scenario differs across builds:\n%s\n%s", seed, a, b)
		}
		if spec(a.faults) != spec(b.faults) {
			t.Fatalf("seed %d: fault plan differs: %s vs %s", seed, spec(a.faults), spec(b.faults))
		}
	}
}

// TestGridCoverage: a modest campaign must visit every scenario kind
// and every backend family, or the grid claim is empty.
func TestGridCoverage(t *testing.T) {
	kinds, backends := map[string]bool{}, map[string]bool{}
	for seed := int64(1); seed <= 64; seed++ {
		sc := buildScenario(seed, 60, 2*time.Second)
		kinds[sc.kind] = true
		backends[sc.backend] = true
	}
	for _, k := range []string{"wire", "stall", "disk", "tile"} {
		if !kinds[k] {
			t.Errorf("64 seeds never produced a %q scenario", k)
		}
	}
	for _, b := range []string{"scale-up", "scale-out", "mpi", "single", "threaded"} {
		if !backends[b] {
			t.Errorf("64 seeds never targeted backend %q", b)
		}
	}
}

// TestCICampaignCoversTwoSidedLazy: the 16-seed campaign CI runs must
// put a kill through the fourth transport × plan cell of the distributed
// runtime — the lazy plan over the two-sided transport — with and
// without an elastic shrink.
func TestCICampaignCoversTwoSidedLazy(t *testing.T) {
	var restart, shrink bool
	for seed := int64(1); seed <= 16; seed++ {
		sc := buildScenario(seed, 60, 2*time.Second)
		if sc.backend == "mpi" && sc.lazy && strings.Contains(spec(sc.faults), "kill:") {
			restart = restart || !sc.elastic
			shrink = shrink || sc.elastic
		}
	}
	if !restart || !shrink {
		t.Errorf("seeds 1-16 kill an mpi lazy rank: restart=%v elastic=%v, want both", restart, shrink)
	}
}

// TestCampaignSmoke runs a handful of real scenarios end to end; every
// invariant must hold.
func TestCampaignSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	for seed := int64(1); seed <= 6; seed++ {
		sc := buildScenario(seed, 40, 2*time.Second)
		if reason := sc.check(sc.faults, 60*time.Second, obs.NewFlightRecorder(1024)); reason != "" {
			t.Errorf("seed %d (%s): %s", seed, sc, reason)
		}
	}
}
