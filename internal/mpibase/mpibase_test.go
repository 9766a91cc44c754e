package mpibase

import (
	"math"
	"math/rand"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/core"
	"svsim/internal/gate"
	"svsim/internal/sched"
)

// The baseline's tests run the mpi row of core's backend table: mpi
// under cfg's plan, remap under the lazy plan (JUQCS-style qubit
// remapping).
func mpi(cfg core.Config, c *circuit.Circuit) (*core.Result, error) {
	return core.NewMPI(cfg).Run(c)
}

func remap(cfg core.Config, c *circuit.Circuit) (*core.Result, error) {
	cfg.Sched = sched.Lazy
	return mpi(cfg, c)
}

func unitaryKinds() []gate.Kind {
	var ks []gate.Kind
	for i := 0; i < gate.NumKinds; i++ {
		k := gate.Kind(i)
		if k.Unitary() && k != gate.BARRIER && k != gate.GPHASE {
			ks = append(ks, k)
		}
	}
	return ks
}

func randomCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New("random", n)
	kinds := unitaryKinds()
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

func TestBaselineMatchesSVSim(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 7
	for trial := 0; trial < 3; trial++ {
		c := randomCircuit(rng, n, 100)
		ref, err := core.NewSingleDevice(core.Config{Seed: 9}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, ranks := range []int{1, 2, 4, 8} {
			got, err := mpi(core.Config{PEs: ranks, Seed: 9}, c)
			if err != nil {
				t.Fatal(err)
			}
			if d := got.State.MaxAbsDiff(ref.State); d != 0 {
				t.Fatalf("trial %d ranks %d: baseline deviates by %g", trial, ranks, d)
			}
		}
	}
}

func TestBaselineMeasurementAgrees(t *testing.T) {
	c := circuit.New("m", 5)
	c.H(0).CX(0, 4)
	c.Measure(4, 0)
	c.Measure(0, 1)
	for seed := int64(0); seed < 10; seed++ {
		ref, err := core.NewSingleDevice(core.Config{Seed: seed}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mpi(core.Config{PEs: 4, Seed: seed}, c)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cbits != ref.Cbits {
			t.Fatalf("seed %d: cbits %b vs %b", seed, got.Cbits, ref.Cbits)
		}
		if d := got.State.MaxAbsDiff(ref.State); d != 0 {
			t.Fatalf("seed %d: state deviates by %g", seed, d)
		}
	}
}

func TestGlobalGateMessageShape(t *testing.T) {
	// One H on a global qubit with 4 ranks: every rank exchanges its whole
	// partition with one partner -> 4 messages total, each of 2S floats.
	n := 8
	c := circuit.New("h7", n)
	c.H(7)
	res, err := mpi(core.Config{PEs: 4}, c)
	if err != nil {
		t.Fatal(err)
	}
	S := (1 << uint(n)) / 4
	if res.MPI.Messages != 4 {
		t.Fatalf("messages = %d, want 4", res.MPI.Messages)
	}
	if res.MPI.MsgBytes != int64(4*2*S*8) {
		t.Fatalf("bytes = %d, want %d", res.MPI.MsgBytes, 4*2*S*8)
	}
	// Each rank packs once and unpacks once per received buffer.
	if res.MPI.PackOps != 8 {
		t.Fatalf("pack ops = %d, want 8", res.MPI.PackOps)
	}
	if res.MPI.HostStagedBytes == 0 {
		t.Fatal("host staging not modeled")
	}
}

func TestLocalCircuitNoMessages(t *testing.T) {
	c := circuit.New("local", 8)
	c.H(0).CX(0, 1).T(3).RZ(0.4, 7) // RZ on a global qubit is diagonal
	res, err := mpi(core.Config{PEs: 4}, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.MPI.Messages != 0 {
		t.Fatalf("local circuit sent %d messages", res.MPI.Messages)
	}
}

func TestCoarseVsFineGrainedShape(t *testing.T) {
	// The structural claim of the paper: for the same circuit, the MPI
	// baseline moves whole partitions in few big messages while the PGAS
	// backend issues many small one-sided ops; and with coalescing, PGAS
	// matches message counts without the pack/staging overhead.
	n := 10
	c := circuit.New("mix", n)
	c.H(9).CX(9, 0).H(8).Swap(8, 9)
	coarse, err := mpi(core.Config{PEs: 4}, c)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := core.NewScaleOut(core.Config{PEs: 4}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if fine.Comm.RemoteMessages() <= coarse.MPI.Messages {
		t.Fatalf("expected fine-grained PGAS messages (%d) >> MPI messages (%d)",
			fine.Comm.RemoteMessages(), coarse.MPI.Messages)
	}
	if coarse.MPI.PackBytes == 0 {
		t.Fatal("baseline did not pay packing costs")
	}
	if d := coarse.State.MaxAbsDiff(fine.State); d != 0 {
		t.Fatalf("baseline and PGAS disagree by %g", d)
	}
}

func TestGroupExchangeTwoGlobalTargets(t *testing.T) {
	// SWAP on the two highest qubits with 8 ranks: group size 4 (two
	// global target bits), exercising the multi-member exchange.
	n := 9
	c := circuit.New("swap-high", n)
	c.H(0).H(8).CX(0, 8)
	c.Swap(7, 8)
	ref, err := core.NewSingleDevice(core.Config{}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mpi(core.Config{PEs: 8}, c)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.State.MaxAbsDiff(ref.State); d != 0 {
		t.Fatalf("two-global-target exchange wrong by %g", d)
	}
}

func TestBaselineConfigValidation(t *testing.T) {
	c := circuit.New("x", 3)
	c.H(0)
	if _, err := mpi(core.Config{PEs: 3}, c); err == nil {
		t.Fatal("ranks=3 accepted")
	}
	if _, err := mpi(core.Config{PEs: 16}, c); err == nil {
		t.Fatal("too many ranks accepted")
	}
}

func TestRemapSimulatorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		c := randomCircuit(rng, 8, 120)
		ref, err := core.NewSingleDevice(core.Config{}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, ranks := range []int{1, 2, 4, 8} {
			got, err := remap(core.Config{PEs: ranks}, c)
			if err != nil {
				t.Fatal(err)
			}
			if d := got.State.MaxAbsDiff(ref.State); d != 0 {
				t.Fatalf("trial %d ranks %d: remap deviates by %g (swaps %d)",
					trial, ranks, d, got.Compile.BitSwaps)
			}
		}
	}
}

func TestRemapExploitsLocality(t *testing.T) {
	// Repeated gates on one global qubit: the remap strategy pays one swap
	// and then works locally, while the pack-exchange baseline exchanges
	// on every gate.
	n := 10
	c := circuit.New("sticky", n)
	for i := 0; i < 20; i++ {
		c.H(9)
		c.RX(0.3, 9)
	}
	lazy, err := remap(core.Config{PEs: 4}, c)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := mpi(core.Config{PEs: 4}, c)
	if err != nil {
		t.Fatal(err)
	}
	if lazy.Compile.BitSwaps != 1 {
		t.Fatalf("remap used %d swaps, want 1", lazy.Compile.BitSwaps)
	}
	if lazy.MPI.Messages >= packed.MPI.Messages {
		t.Fatalf("remap messages (%d) not below pack-exchange (%d)",
			lazy.MPI.Messages, packed.MPI.Messages)
	}
	if d := lazy.State.MaxAbsDiff(packed.State); d != 0 {
		t.Fatalf("strategies disagree by %g", d)
	}
}

func TestRemapDiagonalGatesNeedNoSwap(t *testing.T) {
	c := circuit.New("diag", 8)
	c.H(0)
	c.RZ(0.4, 7).CU1(0.3, 6, 7).T(7)
	res, err := remap(core.Config{PEs: 4}, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Compile.BitSwaps != 0 || res.MPI.Messages != 0 {
		t.Fatalf("diagonal circuit swapped: %d swaps, %d msgs", res.Compile.BitSwaps, res.MPI.Messages)
	}
}

func TestRemapMeasurementMatchesReference(t *testing.T) {
	// Measurement after remapping: the measured qubit may live at a moved
	// physical position; outcomes and states must still match.
	c := circuit.New("m", 8)
	c.H(7).RX(0.4, 7) // forces a swap: qubit 7 moves local
	c.CX(7, 0)
	c.Measure(7, 0)
	c.AppendCond(gate.NewX(1), circuit.Condition{Offset: 0, Width: 1, Value: 1})
	c.Measure(1, 1)
	for seed := int64(0); seed < 10; seed++ {
		ref, err := core.NewSingleDevice(core.Config{Seed: seed}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := remap(core.Config{PEs: 4, Seed: seed}, c)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cbits != ref.Cbits {
			t.Fatalf("seed %d: cbits %b vs %b", seed, got.Cbits, ref.Cbits)
		}
		if d := got.State.MaxAbsDiff(ref.State); d > 1e-9 {
			t.Fatalf("seed %d: remap measurement deviates by %g", seed, d)
		}
	}
}
