package compile

import (
	"math/rand"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/sched"
)

// globalFirstCircuit opens on the highest qubit so the lazy schedule
// emits a remap before any gate executes (the foldable kind), then runs
// a local body and demands locality again so a second, unfoldable remap
// follows.
func globalFirstCircuit(n int) *circuit.Circuit {
	c := circuit.New("globalfirst", n)
	c.H(n - 1)
	for q := 0; q < n; q++ {
		c.H(q)
		c.T(q)
	}
	for q := 0; q < n-1; q++ {
		c.CX(q, q+1)
	}
	c.H(n - 1)
	return c
}

// TestCompileTopoArtifacts checks the one per-remap artifact, flat and
// topology-annotated: every remap step of a multi-partition plan carries
// its phase list — one fleet-scope phase flat, node/rail-scope phases
// under a topology — initial remaps are folded, and — crucially for
// checkpoint interop — the plan fingerprint is identical to the flat
// compile's, since the topology changes how exchanges are realized,
// never what the schedule does.
func TestCompileTopoArtifacts(t *testing.T) {
	c := globalFirstCircuit(8)
	topo := sched.Topology{PEsPerNode: 2}
	// Fusion off: block-aware fusion can absorb the opening global gate
	// into a later block, and the fold assertions need the up-front remap.
	flat, _, err := Compile(c, Config{Sched: sched.Lazy, PEs: 8})
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := Compile(c, Config{Sched: sched.Lazy, PEs: 8, Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	if cp.PlanFP != flat.PlanFP {
		t.Fatal("topology changed the plan fingerprint; checkpoints would not interoperate")
	}
	if cp.Topo != topo {
		t.Fatalf("plan topology %+v, want %+v", cp.Topo, topo)
	}
	if cp.Plan.Folded == 0 {
		t.Fatal("circuit opens on a global qubit; expected a folded initial remap")
	}
	if cp.Plan.Folded == cp.Plan.Remaps {
		t.Fatal("every remap folded; the fold rule must stop at the first gate")
	}
	for _, plan := range []*CompiledPlan{flat, cp} {
		if len(plan.Phases) != len(plan.Plan.Steps) {
			t.Fatalf("Phases length %d, want one entry per step (%d)", len(plan.Phases), len(plan.Plan.Steps))
		}
		remaps := 0
		for si, st := range plan.Plan.Steps {
			phases := plan.Phases[si]
			if st.Kind != sched.StepRemap {
				if phases != nil {
					t.Fatalf("non-remap step %d carries exchange phases", si)
				}
				continue
			}
			remaps++
			if len(phases) == 0 {
				t.Fatalf("remap step %d has no exchange phase", si)
			}
			if plan == flat && (len(phases) != 1 || phases[0].Scope != sched.ScopeFleet) {
				t.Fatalf("flat remap step %d: want one fleet-scope phase, got %d", si, len(phases))
			}
			for _, ph := range phases {
				if (ph.Scope == sched.ScopeFleet) != (plan == flat) || ph.Exchange == nil || len(ph.Swaps) == 0 {
					t.Fatalf("remap step %d: malformed phase (scope %d, %d swaps)", si, ph.Scope, len(ph.Swaps))
				}
			}
		}
		if remaps == 0 {
			t.Fatal("plan has no remaps; test circuit too local")
		}
	}
}

// scoped counts the plan's node- and rail-scope exchange phases.
func scoped(cp *CompiledPlan) int {
	n := 0
	for _, phases := range cp.Phases {
		for _, ph := range phases {
			if ph.Scope != sched.ScopeFleet {
				n++
			}
		}
	}
	return n
}

// TestCompileTopoCacheSeparation checks that topology-annotated plans
// occupy distinct cache slots: a flat hit must never hand back a plan
// with Folded marks or node/rail-scope phases, and vice versa.
func TestCompileTopoCacheSeparation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cache := NewCache(DefaultCacheSize)
	c := testAnsatz(8, randomParams(rng, 5))
	topo := sched.Topology{PEsPerNode: 4}

	flat, st1, err := Compile(c, Config{Fuse: true, Sched: sched.Lazy, PEs: 8, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if st1.CacheHit {
		t.Fatal("cold cache reported a hit")
	}
	topoCP, st2, err := Compile(c, Config{Fuse: true, Sched: sched.Lazy, PEs: 8, Cache: cache, Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	if st2.CacheHit {
		t.Fatal("topology compile hit the flat entry")
	}
	if scoped(topoCP) == 0 {
		t.Fatal("topology compile has no node/rail-scope phase")
	}
	if scoped(flat) != 0 {
		t.Fatal("flat compile carries topology artifacts")
	}
	// Re-binding the same shapes hits the matching entries.
	c2 := testAnsatz(8, randomParams(rng, 5))
	again, st3, err := Compile(c2, Config{Fuse: true, Sched: sched.Lazy, PEs: 8, Cache: cache, Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	if !st3.CacheHit {
		t.Fatal("same shape, same topology: expected a cache hit")
	}
	if scoped(again) != scoped(topoCP) {
		t.Fatal("cache hit dropped the topology artifacts")
	}
	_, st4, err := Compile(c2, Config{Fuse: true, Sched: sched.Lazy, PEs: 8, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !st4.CacheHit {
		t.Fatal("same shape, flat: expected a cache hit on the flat entry")
	}
}

// TestCompileTopoValidation rejects unrealizable topologies.
func TestCompileTopoValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c := testAnsatz(8, randomParams(rng, 3))
	if _, _, err := Compile(c, Config{Sched: sched.Lazy, PEs: 8, Topo: sched.Topology{PEsPerNode: 3}}); err == nil {
		t.Fatal("non-power-of-two PEsPerNode accepted")
	}
	if _, _, err := Compile(c, Config{Sched: sched.Lazy, PEs: 8, Topo: sched.Topology{PEsPerNode: -2}}); err == nil {
		t.Fatal("negative PEsPerNode accepted")
	}
}
