package mpibase

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/ckpt"
	"svsim/internal/core"
	"svsim/internal/fault"
	"svsim/internal/sched"
)

// mpiQFT is the textbook QFT; measurement-free, so the final state is
// rank-count-independent down to the last bit (elastic comparisons).
func mpiQFT(n int) *circuit.Circuit {
	c := circuit.New("qft", n)
	for q := n - 1; q >= 0; q-- {
		c.H(q)
		for j := q - 1; j >= 0; j-- {
			c.CU1(math.Pi/float64(int(1)<<uint(q-j)), j, q)
		}
	}
	for q := 0; q < n/2; q++ {
		c.Swap(q, n-1-q)
	}
	return c
}

// TestMpiAsyncCheckpointResume round-trips the baseline's delta chain
// (TestResumeMatchesUninterrupted is its all-full twin): the background
// writer leaves complete manifests, and resuming from the latest
// matches an uninterrupted run bit-for-bit.
func TestMpiAsyncCheckpointResume(t *testing.T) {
	c := randomCircuit(rand.New(rand.NewSource(21)), 6, 60)
	c.Measure(3, 0)
	ref, err := mpi(core.Config{PEs: 4, Seed: 7}, c)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mid, err := mpi(core.Config{
		PEs: 4, Seed: 7,
		CheckpointEvery: 10, CheckpointDir: dir, CheckpointFullEvery: 2,
	}, c)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Ckpt.Count == 0 {
		t.Fatal("expected checkpoints to be written")
	}
	got, err := mpi(core.Config{PEs: 4, Seed: 7, Resume: dir}, c)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.State.MaxAbsDiff(ref.State); d != 0 {
		t.Fatalf("resumed run deviates by %g (want bit-identical)", d)
	}
	if got.Cbits != ref.Cbits {
		t.Fatalf("cbits %b vs %b", got.Cbits, ref.Cbits)
	}
}

// TestMpiAsyncCrashEquivalence kills a rank of a run writing a delta
// chain (TestCheckpointKillRestore is its all-full twin): the writer
// drains before recovery, so the restart resumes from a complete
// checkpoint and finishes bit-identical.
func TestMpiAsyncCrashEquivalence(t *testing.T) {
	c := randomCircuit(rand.New(rand.NewSource(22)), 6, 60)
	c.Measure(2, 0)
	ref, err := mpi(core.Config{PEs: 4, Seed: 7}, c)
	if err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(1)
	in.KillAt(1, fault.Barrier, 30)
	got, err := mpi(core.Config{
		PEs: 4, Seed: 7, Fault: in,
		CheckpointEvery: 5, CheckpointDir: t.TempDir(), CheckpointFullEvery: 2,
		MaxRestarts: 2,
	}, c)
	if err != nil {
		t.Fatal(err)
	}
	if got.Recoveries != 1 {
		t.Fatalf("want 1 recovery, got %d", got.Recoveries)
	}
	if d := got.State.MaxAbsDiff(ref.State); d != 0 {
		t.Fatalf("recovered run deviates by %g (want bit-identical)", d)
	}
	if got.Cbits != ref.Cbits {
		t.Fatalf("cbits %b vs %b", got.Cbits, ref.Cbits)
	}
}

// TestMpiElasticReshard resumes a checkpoint taken at 8 ranks on 4, 8,
// and 16 ranks; the residual finishes bit-identical to the
// uninterrupted 8-rank run.
func TestMpiElasticReshard(t *testing.T) {
	c := mpiQFT(10)
	ref, err := mpi(core.Config{PEs: 8, Seed: 5}, c)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := mpi(core.Config{
		PEs: 8, Seed: 5, CheckpointEvery: 10, CheckpointDir: dir,
	}, c); err != nil {
		t.Fatal(err)
	}
	for _, newRanks := range []int{4, 8, 16} {
		got, err := mpi(core.Config{PEs: newRanks, Seed: 5, Resume: dir}, c)
		if err != nil {
			t.Fatalf("P'=%d: %v", newRanks, err)
		}
		if got.PEs != newRanks {
			t.Fatalf("P'=%d: result reports %d ranks", newRanks, got.PEs)
		}
		if d := got.State.MaxAbsDiff(ref.State); d != 0 {
			t.Fatalf("P'=%d: elastic run deviates by %g (want bit-identical)", newRanks, d)
		}
	}
}

// TestMpiElasticShrinkOnKill checks the self-healing path: with
// Config.Elastic a killed rank reshards the latest checkpoint onto half
// the fleet instead of restarting at full size.
func TestMpiElasticShrinkOnKill(t *testing.T) {
	c := mpiQFT(10)
	ref, err := mpi(core.Config{PEs: 8, Seed: 5}, c)
	if err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(1)
	in.KillAt(1, fault.Barrier, 45)
	got, err := mpi(core.Config{
		PEs: 8, Seed: 5, Fault: in,
		CheckpointEvery: 5, CheckpointDir: t.TempDir(),
		MaxRestarts: 1, Elastic: true,
	}, c)
	if err != nil {
		t.Fatal(err)
	}
	if got.PEs != 4 {
		t.Fatalf("want shrink to 4 ranks, got %d", got.PEs)
	}
	if got.Recoveries != 1 {
		t.Fatalf("want 1 recovery, got %d", got.Recoveries)
	}
	if d := got.State.MaxAbsDiff(ref.State); d != 0 {
		t.Fatalf("elastic recovery deviates by %g (want bit-identical)", d)
	}
}

// TestMpiStopWithoutCheckpoint: with checkpointing off there is no cut
// to vote at, yet a triggered latch must still stop the fleet — any rank
// that reads it at a step boundary unwinds everyone.
func TestMpiStopWithoutCheckpoint(t *testing.T) {
	c := randomCircuit(rand.New(rand.NewSource(24)), 6, 60)
	c.Measure(1, 0)
	for _, ranks := range []int{2, 4} {
		for _, pol := range []sched.Policy{sched.Naive, sched.Lazy} {
			stop := &core.StopLatch{}
			stop.Trigger()
			if _, err := mpi(core.Config{PEs: ranks, Seed: 11, Sched: pol, Stop: stop}, c); !errors.Is(err, core.ErrInterrupted) {
				t.Errorf("%s at %d ranks: want ErrInterrupted, got %v", pol, ranks, err)
			}
		}
	}
}

// TestMpiStopWritesFinalCheckpoint checks graceful shutdown: a stop
// request makes the fleet publish one final checkpoint and unwind with
// core.ErrInterrupted; a later resume finishes bit-identical.
func TestMpiStopWritesFinalCheckpoint(t *testing.T) {
	c := randomCircuit(rand.New(rand.NewSource(23)), 6, 60)
	c.Measure(1, 0)
	ref, err := mpi(core.Config{PEs: 4, Seed: 11}, c)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	stop := &core.StopLatch{}
	stop.Trigger()
	_, err = mpi(core.Config{
		PEs: 4, Seed: 11,
		CheckpointEvery: 5, CheckpointDir: dir,
		Stop: stop,
	}, c)
	if !errors.Is(err, core.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	if _, _, ok, _ := ckpt.Latest(dir); !ok {
		t.Fatal("interrupted run left no final checkpoint")
	}
	got, err := mpi(core.Config{PEs: 4, Seed: 11, Resume: dir}, c)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.State.MaxAbsDiff(ref.State); d != 0 {
		t.Fatalf("resumed run deviates by %g", d)
	}
	if got.Cbits != ref.Cbits {
		t.Fatalf("cbits %b vs %b", got.Cbits, ref.Cbits)
	}
}

// TestRemapHonoursResilienceConfig pins what the remap baseline's Config
// always offered and its private executor used to ignore: a barrier
// kill is a structured core.RunFailure (not an ignored injector), with
// checkpoints it restarts and finishes bit-identical, its manifests
// record the lazy plan's identity, and a triggered stop publishes one
// final checkpoint before unwinding.
func TestRemapHonoursResilienceConfig(t *testing.T) {
	c := randomCircuit(rand.New(rand.NewSource(31)), 7, 80)
	c.Measure(6, 0)
	c.Measure(2, 1)
	ref, err := remap(core.Config{PEs: 4, Seed: 7}, c)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Compile.Remaps == 0 {
		t.Fatal("test circuit never remaps; pick one that does")
	}
	kill := func() *fault.Injector {
		in := fault.NewInjector(1)
		in.KillAt(1, fault.Barrier, 12)
		return in
	}

	_, err = remap(core.Config{PEs: 4, Seed: 7, Fault: kill()}, c)
	var rf *core.RunFailure
	if !errors.As(err, &rf) || rf.Attempts != 1 {
		t.Fatalf("kill without checkpoints: want *core.RunFailure after 1 attempt, got %T: %v", err, err)
	}
	var ke *fault.KillError
	if !errors.As(err, &ke) || ke.Rank != 1 {
		t.Fatalf("root cause should be rank 1's kill, got %v", err)
	}

	for _, fullEvery := range []int{0, 2} {
		dir := t.TempDir()
		got, err := remap(core.Config{
			PEs: 4, Seed: 7, Fault: kill(),
			CheckpointEvery: 4, CheckpointDir: dir, CheckpointFullEvery: fullEvery, MaxRestarts: 2,
		}, c)
		if err != nil {
			t.Fatalf("full-every=%d: %v", fullEvery, err)
		}
		if got.Recoveries != 1 || got.Ckpt.Count == 0 {
			t.Fatalf("full-every=%d: recoveries=%d checkpoints=%d, want 1 and > 0", fullEvery, got.Recoveries, got.Ckpt.Count)
		}
		if d := got.State.MaxAbsDiff(ref.State); d != 0 || got.Cbits != ref.Cbits {
			t.Fatalf("full-every=%d: recovered run deviates by %g, cbits %b vs %b", fullEvery, d, got.Cbits, ref.Cbits)
		}
		_, m, ok, err := ckpt.Latest(dir)
		if err != nil || !ok {
			t.Fatalf("full-every=%d: no checkpoint on disk: ok=%v err=%v", fullEvery, ok, err)
		}
		if m.Backend != "mpi" || m.Sched != "lazy" || len(m.Perm) != c.NumQubits {
			t.Fatalf("full-every=%d: manifest backend=%q sched=%q perm=%v, want mpi/lazy and a %d-qubit permutation",
				fullEvery, m.Backend, m.Sched, m.Perm, c.NumQubits)
		}
	}

	dir := t.TempDir()
	stop := &core.StopLatch{}
	stop.Trigger()
	_, err = remap(core.Config{PEs: 4, Seed: 7, CheckpointEvery: 4, CheckpointDir: dir, Stop: stop}, c)
	if !errors.Is(err, core.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	steps, err := ckpt.CompleteSteps(dir)
	if err != nil || len(steps) != 1 {
		t.Fatalf("interrupted run left checkpoints %v (err %v), want exactly one", steps, err)
	}
	got, err := remap(core.Config{PEs: 4, Seed: 7, Resume: dir}, c)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.State.MaxAbsDiff(ref.State); d != 0 || got.Cbits != ref.Cbits {
		t.Fatalf("resumed run deviates by %g, cbits %b vs %b", d, got.Cbits, ref.Cbits)
	}
}
