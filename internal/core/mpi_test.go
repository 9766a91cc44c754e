package core

import (
	"errors"
	"slices"
	"testing"
	"time"

	"svsim/internal/circuit"
	"svsim/internal/ckpt"
	"svsim/internal/fault"
	"svsim/internal/pgas"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
)

// The three settings the baseline's hand-kept Config used to drop: with
// mpi a row of the backend table they reach the two-sided transport like
// every other backend's.

// TestMPILazySchedIsHonoured: Sched picks the plan on mpi too. QFT(15)
// on 4 ranks under the lazy plan is 8 pairwise remaps of 2 messages of
// S/2 complex amplitudes each per rank pair, one closing grid sync per
// remap — not the naive plan's 224 messages.
func TestMPILazySchedIsHonoured(t *testing.T) {
	e, err := qasmbench.ByName("qft_n15")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build()
	res, err := runMPI(t, Config{PEs: 4, Sched: sched.Lazy}, c)
	if err != nil {
		t.Fatal(err)
	}
	if m := res.MPI; m.Messages != 16 || m.MsgBytes != 1<<20 || m.Syncs != 8 {
		t.Fatalf("mpi lazy qft_n15 x4: %v, want msgs=16 bytes=1048576 syncs=8", m)
	}
	if res.Compile.Remaps == 0 || res.Compile.BitSwaps == 0 {
		t.Fatalf("compile stats report no remaps: %+v", res.Compile)
	}
	ref, err := NewSingleDevice(Config{}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.State.MaxAbsDiff(ref.State); d != 0 {
		t.Fatalf("mpi lazy deviates from single by %g", d)
	}
}

// TestMPIAsyncCheckpointDeltaChain: CheckpointFullEvery compacts the
// mpi backend's chain — written, like every chain, by the background
// writer — every N-th checkpoint, with deltas in between, and resuming
// from the latest replays the chain bit-identical.
func TestMPIAsyncCheckpointDeltaChain(t *testing.T) {
	c := measuredCircuit(41, 7, 70)
	for _, pol := range []sched.Policy{sched.Naive, sched.Lazy} {
		t.Run(string(pol), func(t *testing.T) {
			base := Config{PEs: 4, Seed: 9, Sched: pol}
			ref, err := runMPI(t, base, c)
			if err != nil {
				t.Fatal(err)
			}
			dir := ckptTestDir(t)
			cfg := base
			cfg.CheckpointEvery, cfg.CheckpointDir = 5, dir
			cfg.CheckpointFullEvery = 4
			if _, err := runMPI(t, cfg, c); err != nil {
				t.Fatal(err)
			}
			kinds := readKinds(t, dir) // newest first
			if len(kinds) < 5 {
				t.Fatalf("only %d checkpoints (%v); the chain needs a second full", len(kinds), kinds)
			}
			for i, k := range kinds {
				want := ckpt.KindDelta
				if (len(kinds)-1-i)%4 == 0 {
					want = ckpt.KindFull
				}
				if k != want {
					t.Fatalf("kinds %v (newest first): checkpoint %d is %q, want %q", kinds, len(kinds)-1-i, k, want)
				}
			}
			rcfg := base
			rcfg.Resume = dir
			got, err := runMPI(t, rcfg, c)
			if err != nil {
				t.Fatal(err)
			}
			if d := got.State.MaxAbsDiff(ref.State); d != 0 || got.Cbits != ref.Cbits {
				t.Fatalf("resumed run deviates by %g, cbits %b vs %b", d, got.Cbits, ref.Cbits)
			}
		})
	}
}

// TestMPIBarrierTimeoutIsRunFailure: Timeouts.Barrier bounds the mpi
// backend's barriers — a rank stalled at a barrier surfaces as the
// barrier-timeout RunFailure blaming it.
func TestMPIBarrierTimeoutIsRunFailure(t *testing.T) {
	c := measuredCircuit(34, 6, 40)
	in := fault.NewInjector(faultSeed(t))
	in.StallBarrier(2, 10, time.Second)
	cfg := Config{PEs: 4, Seed: 7, Fault: in}
	cfg.Timeouts.Barrier = 100 * time.Millisecond
	_, err := runMPI(t, cfg, c)
	var rf *RunFailure
	if !errors.As(err, &rf) || rf.Backend != "mpi" {
		t.Fatalf("want the mpi *RunFailure, got %T: %v", err, err)
	}
	var bte *pgas.BarrierTimeoutError
	if !errors.As(err, &bte) || !slices.Contains(bte.Stalled, 2) {
		t.Fatalf("want a barrier timeout blaming rank 2, got %v", err)
	}
}

// runMPI runs c on the table's mpi row.
func runMPI(t *testing.T, cfg Config, c *circuit.Circuit) (*Result, error) {
	t.Helper()
	b, err := NewBackend("mpi", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b.Run(c)
}

func TestCommPrimitives(t *testing.T) {
	fleet := pgas.NewComm(4)
	comm := newMsgComm(fleet, nil)
	fleet.Run(func(pe *pgas.PE) {
		// Ring pass.
		buf := []float64{float64(pe.Rank)}
		next := (pe.Rank + 1) % 4
		comm.send(pe, next, buf)
		got := comm.recv(pe, (pe.Rank+3)%4)
		if got[0] != float64((pe.Rank+3)%4) {
			t.Errorf("rank %d: ring got %v", pe.Rank, got)
		}
		// Reduction (the fleet's, counted as the baseline's).
		if s := pe.AllReduceSum(2); s != 8 {
			t.Errorf("allreduce = %g", s)
		}
	})
	st := comm.totalStats()
	if st.Messages != 4 || st.Reductions != 4 || st.Syncs != 8 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestRecvUnwindsOnFleetAbort checks that a rank blocked in recv on a
// partner that died is released by the fleet's abort latch.
func TestRecvUnwindsOnFleetAbort(t *testing.T) {
	fleet := pgas.NewComm(2)
	comm := newMsgComm(fleet, nil)
	boom := errors.New("boom")
	err := fleet.RunChecked(func(pe *pgas.PE) {
		if pe.Rank == 0 {
			pe.Fail(boom)
		}
		comm.recv(pe, 0)
	})
	var re *pgas.RunError
	if !errors.As(err, &re) || len(re.Failures) != 2 || !errors.Is(err, boom) {
		t.Fatalf("want both ranks failed with boom as root cause, got %v", err)
	}
}
