package mpibase

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/core"
	"svsim/internal/gate"
	"svsim/internal/pgas"
)

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
			got, err := New(Config{Ranks: ranks, Seed: 9}).Run(c)
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
		got, err := New(Config{Ranks: 4, Seed: seed}).Run(c)
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
	res, err := New(Config{Ranks: 4}).Run(c)
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
	res, err := New(Config{Ranks: 4}).Run(c)
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
	mpi, err := New(Config{Ranks: 4}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := core.NewScaleOut(core.Config{PEs: 4}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if fine.Comm.RemoteMessages() <= mpi.MPI.Messages {
		t.Fatalf("expected fine-grained PGAS messages (%d) >> MPI messages (%d)",
			fine.Comm.RemoteMessages(), mpi.MPI.Messages)
	}
	if mpi.MPI.PackBytes == 0 {
		t.Fatal("baseline did not pay packing costs")
	}
	if d := mpi.State.MaxAbsDiff(fine.State); d != 0 {
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
	got, err := New(Config{Ranks: 8}).Run(c)
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
	if _, err := New(Config{Ranks: 3}).Run(c); err == nil {
		t.Fatal("ranks=3 accepted")
	}
	if _, err := New(Config{Ranks: 16}).Run(c); err == nil {
		t.Fatal("too many ranks accepted")
	}
}

func TestCommPrimitives(t *testing.T) {
	fleet := pgas.NewComm(4)
	comm := NewComm(fleet)
	fleet.Run(func(pe *pgas.PE) {
		// Ring pass.
		buf := []float64{float64(pe.Rank)}
		next := (pe.Rank + 1) % 4
		comm.Send(pe, next, buf)
		got := comm.Recv(pe, (pe.Rank+3)%4)
		if got[0] != float64((pe.Rank+3)%4) {
			t.Errorf("rank %d: ring got %v", pe.Rank, got)
		}
		// Reduction (the fleet's, counted as the baseline's).
		if s := pe.AllReduceSum(2); s != 8 {
			t.Errorf("allreduce = %g", s)
		}
	})
	st := comm.TotalStats()
	if st.Messages != 4 || st.Reductions != 4 || st.Syncs != 8 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestRecvUnwindsOnFleetAbort checks that a rank blocked in Recv on a
// partner that died is released by the fleet's abort latch.
func TestRecvUnwindsOnFleetAbort(t *testing.T) {
	fleet := pgas.NewComm(2)
	comm := NewComm(fleet)
	boom := errors.New("boom")
	err := fleet.RunChecked(func(pe *pgas.PE) {
		if pe.Rank == 0 {
			pe.Fail(boom)
		}
		comm.Recv(pe, 0)
	})
	var re *pgas.RunError
	if !errors.As(err, &re) || len(re.Failures) != 2 || !errors.Is(err, boom) {
		t.Fatalf("want both ranks failed with boom as root cause, got %v", err)
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
			got, err := NewRemap(Config{Ranks: ranks}).Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if d := got.State.MaxAbsDiff(ref.State); d != 0 {
				t.Fatalf("trial %d ranks %d: remap deviates by %g (swaps %d)",
					trial, ranks, d, got.BitSwaps)
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
	remap, err := NewRemap(Config{Ranks: 4}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := New(Config{Ranks: 4}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if remap.BitSwaps != 1 {
		t.Fatalf("remap used %d swaps, want 1", remap.BitSwaps)
	}
	if remap.MPI.Messages >= packed.MPI.Messages {
		t.Fatalf("remap messages (%d) not below pack-exchange (%d)",
			remap.MPI.Messages, packed.MPI.Messages)
	}
	if d := remap.State.MaxAbsDiff(packed.State); d != 0 {
		t.Fatalf("strategies disagree by %g", d)
	}
}

func TestRemapDiagonalGatesNeedNoSwap(t *testing.T) {
	c := circuit.New("diag", 8)
	c.H(0)
	c.RZ(0.4, 7).CU1(0.3, 6, 7).T(7)
	res, err := NewRemap(Config{Ranks: 4}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.BitSwaps != 0 || res.MPI.Messages != 0 {
		t.Fatalf("diagonal circuit swapped: %d swaps, %d msgs", res.BitSwaps, res.MPI.Messages)
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
		got, err := NewRemap(Config{Ranks: 4, Seed: seed}).Run(c)
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
