package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"svsim/internal/circuit"
)

// randomDisjointSwaps draws nSwaps transpositions over distinct global
// and distinct local bit positions, the only shape the scheduler emits.
func randomDisjointSwaps(rng *rand.Rand, k, localBits, nSwaps int) []Swap {
	globals := rng.Perm(k)[:nSwaps]
	locals := rng.Perm(localBits)[:nSwaps]
	swaps := make([]Swap, nSwaps)
	for i := range swaps {
		swaps[i] = Swap{Global: localBits + globals[i], Local: locals[i]}
	}
	return swaps
}

func TestSplitExchangePartitionAndEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		k := 2 + rng.Intn(3) // 4..16 PEs
		localBits := 3 + rng.Intn(3)
		n := localBits + k
		p := 1 << uint(k)
		ppn := 1 << uint(rng.Intn(k+1)) // 1..p PEs per node
		topo := Topology{PEsPerNode: ppn}
		nSwaps := 1 + rng.Intn(k)
		if nSwaps > localBits {
			nSwaps = localBits
		}
		swaps := randomDisjointSwaps(rng, k, localBits, nSwaps)

		phases := SplitExchange(swaps, n, localBits, p, topo)
		if len(phases) == 0 || len(phases) > 2 {
			t.Fatalf("trial %d: split into %d phases, want 1 or 2", trial, len(phases))
		}
		if len(phases) == 2 && (phases[0].Scope != ScopeNode || phases[1].Scope != ScopeRail) {
			t.Fatalf("trial %d: phase order %d,%d, want node then rail", trial, phases[0].Scope, phases[1].Scope)
		}
		nSplit := 0
		for _, ph := range phases {
			nSplit += len(ph.Swaps)
			for _, sw := range ph.Swaps {
				if topo.InterBit(sw.Global, localBits) != (ph.Scope == ScopeRail) {
					t.Fatalf("trial %d: swap %v in a phase of scope %d", trial, sw, ph.Scope)
				}
			}
			for s := 0; s < p; s++ {
				for d := 0; d < p; d++ {
					if !ph.Compat[s][d] {
						continue
					}
					switch ph.Scope {
					case ScopeNode:
						// The node phase must never pair ranks on different nodes.
						if !topo.SameNode(s, d) {
							t.Fatalf("trial %d: node phase pairs cross-node ranks %d,%d (ppn=%d)", trial, s, d, ppn)
						}
					case ScopeRail:
						// The rail phase pins every within-node rank bit:
						// compatible pairs agree on rank mod PEsPerNode.
						if s%ppn != d%ppn {
							t.Fatalf("trial %d: rail phase pairs ranks %d,%d on different rails (ppn=%d)", trial, s, d, ppn)
						}
					default:
						t.Fatalf("trial %d: fleet-scope phase under an enabled topology", trial)
					}
				}
			}
		}
		if nSplit != len(swaps) {
			t.Fatalf("trial %d: partition lost swaps: %d of %d", trial, nSplit, len(swaps))
		}
		// The phases in order must land every amplitude exactly where the
		// flat permutation does.
		v := make([]float64, 1<<uint(n))
		for i := range v {
			v[i] = rng.Float64()
		}
		got := v
		for _, ph := range phases {
			got = runExchange(ph.Exchange, got, localBits, p)
		}
		want := applySwapsDirect(v, swaps)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d p=%d ppn=%d swaps=%v): element %d = %g, want %g",
					trial, n, p, ppn, swaps, i, got[i], want[i])
			}
		}
	}
}

// TestSplitExchangeFlatIsOnePhase: without a topology — and for a swap
// list that is not a product of disjoint transpositions, which may not
// be reordered — a remap is the one-phase list: a single fleet-scope
// phase over the whole swap list, whose exchange is NewExchange's.
func TestSplitExchangeFlatIsOnePhase(t *testing.T) {
	swaps := []Swap{{Global: 5, Local: 0}, {Global: 6, Local: 3}}
	overlap := []Swap{{Global: 5, Local: 0}, {Global: 5, Local: 1}}
	for _, tc := range []struct {
		name  string
		swaps []Swap
		topo  Topology
	}{
		{"disabled topology", swaps, Topology{}},
		{"one swap", swaps[:1], Topology{}},
		{"non-disjoint swaps", overlap, Topology{PEsPerNode: 2}},
	} {
		phases := SplitExchange(tc.swaps, 7, 5, 4, tc.topo)
		if len(phases) != 1 || phases[0].Scope != ScopeFleet {
			t.Fatalf("%s: got %d phases, want one fleet-scope phase", tc.name, len(phases))
		}
		if !reflect.DeepEqual(phases[0].Swaps, tc.swaps) {
			t.Fatalf("%s: phase swaps %v, want the whole list %v", tc.name, phases[0].Swaps, tc.swaps)
		}
		if want := NewExchange(tc.swaps, 7, 5, 4); !reflect.DeepEqual(phases[0].Exchange, want) {
			t.Fatalf("%s: phase exchange differs from NewExchange of the whole swap list", tc.name)
		}
	}
	// Under a topology a disjoint list never yields a fleet-scope phase
	// and never an empty list.
	for _, ppn := range []int{1, 2, 4} {
		phases := SplitExchange(swaps, 7, 5, 4, Topology{PEsPerNode: ppn})
		if len(phases) == 0 {
			t.Fatalf("ppn %d: no phases for a remap with swaps", ppn)
		}
		for _, ph := range phases {
			if ph.Scope == ScopeFleet {
				t.Fatalf("ppn %d: fleet-scope phase under an enabled topology", ppn)
			}
		}
	}
}

func TestNodeSplitVolume(t *testing.T) {
	// One node: everything intra. One PE per node: everything inter.
	n, localBits, p := 8, 5, 8
	swaps := []Swap{{Global: 5, Local: 0}, {Global: 7, Local: 2}}
	ex := NewExchange(swaps, n, localBits, p)
	total := ex.RemoteBytes()
	if total == 0 {
		t.Fatal("exchange moves nothing remotely")
	}
	intra, inter, msgs := ex.NodeSplit(p, Topology{PEsPerNode: p})
	if intra != total || inter != 0 || msgs != 0 {
		t.Fatalf("one node: got intra=%d inter=%d msgs=%d, want all %d intra", intra, inter, msgs, total)
	}
	intra, inter, msgs = ex.NodeSplit(p, Topology{PEsPerNode: 1})
	if inter != total || intra != 0 || msgs == 0 {
		t.Fatalf("one PE per node: got intra=%d inter=%d, want all %d inter", intra, inter, total)
	}
	// Any topology partitions the same remote volume.
	intra, inter, _ = ex.NodeSplit(p, Topology{PEsPerNode: 2})
	if intra+inter != total {
		t.Fatalf("ppn=2 split %d+%d != total %d", intra, inter, total)
	}
}

func TestBuildTopoFoldsOnlyInitialRemaps(t *testing.T) {
	// H on a global qubit forces an up-front remap before the first gate;
	// later remaps must stay unfolded.
	c := circuit.New("fold", 6)
	c.H(5)
	c.H(0)
	c.H(4)
	topo := Topology{PEsPerNode: 2}
	flat, err := Build(c, 3, Lazy)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildTopo(c, 3, Lazy, topo)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Folded == 0 {
		t.Fatal("no initial remap folded")
	}
	if len(plan.Steps) != len(flat.Steps) {
		t.Fatalf("topology changed the schedule: %d steps vs %d", len(plan.Steps), len(flat.Steps))
	}
	seenGate := false
	for si, st := range plan.Steps {
		if st.Kind != flat.Steps[si].Kind || len(st.Swaps) != len(flat.Steps[si].Swaps) {
			t.Fatalf("step %d differs from flat plan", si)
		}
		switch st.Kind {
		case StepGate:
			seenGate = true
		case StepRemap:
			if st.Folded && seenGate {
				t.Fatalf("step %d: remap after a gate marked folded", si)
			}
			if !st.Folded && !seenGate {
				t.Fatalf("step %d: initial remap not folded", si)
			}
		}
	}
	if err := (Topology{PEsPerNode: 3}).Validate(); err == nil {
		t.Fatal("non-power-of-two PEsPerNode validated")
	}
	if _, err := BuildTopo(c, 3, Lazy, Topology{PEsPerNode: -1}); err == nil {
		t.Fatal("negative topology accepted")
	}
}
