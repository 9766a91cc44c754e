package core

import (
	"errors"
	"slices"
	"testing"
	"time"

	"svsim/internal/circuit"
	"svsim/internal/fault"
	"svsim/internal/pgas"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
)

// The three settings the baseline's hand-kept Config used to drop: with
// mpi a row of the backend table they reach the two-sided transport like
// every other backend's.

// TestMPILazySchedIsHonoured: Sched picks the plan on mpi too. QFT(15)
// on 4 ranks under the lazy plan exchanges 12 messages of S/4 complex
// amplitudes and no grid sync — not the naive plan's 224 messages: its
// one live remap swaps two bit pairs, three XOR rounds of one chunk per
// rank, each a pairwise send-receive. Its first remap precedes every
// gate: the classical prefix a fresh run folds.
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
	if m := res.MPI; m.Messages != 12 || m.MsgBytes != 393216 || m.Syncs != 0 {
		t.Fatalf("mpi lazy qft_n15 x4: %v, want msgs=12 bytes=393216 syncs=0", m)
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

// TestMPIBarrierTimeoutIsRunFailure: Timeouts.Barrier bounds the mpi
// backend's barriers — a rank stalled at a barrier surfaces as the
// barrier-timeout RunFailure blaming it.
func TestMPIBarrierTimeoutIsRunFailure(t *testing.T) {
	c := measuredCircuit(34, 6, 40)
	in := fault.NewInjector(faultSeed(t))
	in.Arm(fault.Fault{Kind: fault.Stall, Rank: 2, Op: fault.Barrier, After: 10, Delay: time.Second})
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
