package sched

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/gate"
)

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"naive", Naive, true},
		{"lazy", Lazy, true},
		{"", Naive, true},
		{"eager", "", false},
	} {
		got, err := ParsePolicy(tc.in)
		if tc.ok != (err == nil) || got != tc.want {
			t.Errorf("ParsePolicy(%q) = %q, %v", tc.in, got, err)
		}
	}
}

func TestNaivePlanIsPassthrough(t *testing.T) {
	c := circuit.New("c", 6)
	c.H(5).CX(5, 0).Swap(0, 5)
	plan, err := Build(c, 3, Naive)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 3 || plan.Remaps != 0 || plan.Aliases != 0 {
		t.Fatalf("naive plan: %+v", plan)
	}
	for i, st := range plan.Steps {
		if st.Kind != StepGate || st.Op != i {
			t.Fatalf("step %d: %+v", i, st)
		}
	}
	if !plan.Final.IsIdentity() {
		t.Fatal("naive plan permuted")
	}
}

func TestLazyAllLocalNeedsNoRemap(t *testing.T) {
	c := circuit.New("c", 8)
	c.H(0).CX(0, 1).CCX(0, 1, 2).RZ(0.3, 7).CU1(0.2, 6, 7) // high ops diagonal
	plan, err := Build(c, 6, Lazy)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Remaps != 0 || plan.BitSwaps != 0 {
		t.Fatalf("local circuit remapped: %+v", plan)
	}
}

func TestLazyRepeatedGlobalGateRemapsOnce(t *testing.T) {
	c := circuit.New("c", 10)
	for i := 0; i < 20; i++ {
		c.H(9).RX(0.3, 9)
	}
	plan, err := Build(c, 8, Lazy)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Remaps != 1 || plan.BitSwaps != 1 {
		t.Fatalf("want one remap of one swap, got %d remaps, %d swaps", plan.Remaps, plan.BitSwaps)
	}
}

func TestLazyAbsorbsSwapGates(t *testing.T) {
	c := circuit.New("c", 8)
	c.H(0)
	c.Swap(0, 7) // pure relabel: no data movement
	c.RZ(0.4, 0) // diagonal: fine at any position
	plan, err := Build(c, 6, Lazy)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Aliases != 1 || plan.Remaps != 0 {
		t.Fatalf("swap not absorbed: %+v", plan)
	}
	if plan.Final.IsIdentity() {
		t.Fatal("alias did not permute")
	}
}

func TestLazyPrefetchBatchesRemaps(t *testing.T) {
	// Gates on all three global qubits in a row: one batched remap should
	// bring all of them local (the evicted low qubits are never demanded).
	c := circuit.New("c", 10)
	c.H(9).H(8).H(7)
	plan, err := Build(c, 7, Lazy)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Remaps != 1 || plan.BitSwaps != 3 {
		t.Fatalf("want one 3-swap remap, got %d remaps, %d swaps", plan.Remaps, plan.BitSwaps)
	}
}

func TestLazyTooManyTargetsErrors(t *testing.T) {
	c := circuit.New("c", 6)
	c.Append(gate.New(gate.RC3X, []int{0, 1, 2, 3}))
	_, err := Build(c, 2, Lazy) // 4 targets, 2 local bits
	if err == nil || !strings.Contains(err.Error(), "local target bits") {
		t.Fatalf("want capacity error, got %v", err)
	}
}

// replayPlan executes the plan's permutation bookkeeping and checks the
// planner's invariants: every non-diagonal gate target is local when its
// step runs, remap swaps are well-formed, and Final matches the replay.
func replayPlan(t *testing.T, c *circuit.Circuit, plan *Plan) {
	t.Helper()
	perm := circuit.IdentityPermutation(c.NumQubits)
	gates := 0
	for si := range plan.Steps {
		st := &plan.Steps[si]
		switch st.Kind {
		case StepAlias:
			perm.SwapLogical(st.A, st.B)
		case StepRemap:
			if len(st.Swaps) == 0 {
				t.Fatalf("step %d: empty remap", si)
			}
			for _, sw := range st.Swaps {
				if sw.Global < plan.LocalBits || sw.Local >= plan.LocalBits {
					t.Fatalf("step %d: malformed swap %+v", si, sw)
				}
				perm.SwapPhysical(sw.Global, sw.Local)
			}
		case StepGate:
			op := &c.Ops[st.Op]
			for _, q := range demandedQubits(op) {
				if perm[q] >= plan.LocalBits {
					t.Fatalf("step %d: op %d (%s) target q%d at global position %d",
						si, st.Op, op.G.Kind, q, perm[q])
				}
			}
			gates++
		}
	}
	if err := perm.Validate(); err != nil {
		t.Fatal(err)
	}
	for q := range perm {
		if perm[q] != plan.Final[q] {
			t.Fatalf("replayed perm %v != plan.Final %v", perm, plan.Final)
		}
	}
	if gates+plan.Aliases != len(c.Ops) {
		t.Fatalf("plan covers %d of %d ops", gates+plan.Aliases, len(c.Ops))
	}
}

func randomCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New("random", n)
	var kinds []gate.Kind
	for i := 0; i < gate.NumKinds; i++ {
		k := gate.Kind(i)
		if k.Unitary() && k != gate.BARRIER && k != gate.GPHASE {
			kinds = append(kinds, k)
		}
	}
	for i := 0; i < gates; i++ {
		k := kinds[rng.Intn(len(kinds))]
		perm := rng.Perm(n)
		ps := make([]float64, k.NumParams())
		for j := range ps {
			ps[j] = (rng.Float64()*2 - 1) * 2 * math.Pi
		}
		c.Append(gate.New(k, perm[:k.NumQubits()], ps...))
	}
	return c
}

func TestLazyPlanInvariantsOnRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(5)
		c := randomCircuit(rng, n, 80)
		for localBits := 4; localBits <= n; localBits++ {
			plan, err := Build(c, localBits, Lazy)
			if err != nil {
				t.Fatal(err)
			}
			replayPlan(t, c, plan)
		}
	}
}

func TestLazyNeverRemapsMoreThanNaiveGateCount(t *testing.T) {
	// Sanity bound: a remap is only emitted when some gate demands it, so
	// there can never be more remaps than gates.
	rng := rand.New(rand.NewSource(13))
	c := randomCircuit(rng, 8, 60)
	plan, err := Build(c, 5, Lazy)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Remaps > len(c.Ops) {
		t.Fatalf("remaps %d > ops %d", plan.Remaps, len(c.Ops))
	}
}
