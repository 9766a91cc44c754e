package mpibase

import (
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"svsim/internal/ckpt"
	"svsim/internal/core"
	"svsim/internal/fault"
	"svsim/internal/pgas"
)

// TestKillAtBarrierAbortsFleet checks that a rank killed at a barrier
// unwinds every other rank with a typed error instead of hanging the
// fleet, and that the root cause survives unwrapping.
func TestKillAtBarrierAbortsFleet(t *testing.T) {
	c := randomCircuit(rand.New(rand.NewSource(5)), 6, 40)
	in := fault.NewInjector(1)
	in.KillAt(2, fault.Barrier, 10)
	_, err := mpi(core.Config{PEs: 4, Seed: 9, Fault: in}, c)
	if err == nil {
		t.Fatal("expected a failed run")
	}
	var re *pgas.RunError
	if !errors.As(err, &re) {
		t.Fatalf("want *pgas.RunError, got %T: %v", err, err)
	}
	if len(re.Failures) != 4 {
		t.Fatalf("want all 4 ranks to fail, got %d: %v", len(re.Failures), err)
	}
	var ke *fault.KillError
	if !errors.As(err, &ke) || ke.Rank != 2 {
		t.Fatalf("root cause should be rank 2's kill, got %v", err)
	}
}

// TestKillWithoutCheckpointIsRunFailure checks the structured terminal
// error when no recovery is configured.
func TestKillWithoutCheckpointIsRunFailure(t *testing.T) {
	c := randomCircuit(rand.New(rand.NewSource(5)), 6, 40)
	in := fault.NewInjector(1)
	in.KillAt(0, fault.Barrier, 5)
	_, err := mpi(core.Config{PEs: 2, Seed: 9, Fault: in}, c)
	var rf *core.RunFailure
	if !errors.As(err, &rf) {
		t.Fatalf("want *RunFailure, got %T: %v", err, err)
	}
	if rf.Attempts != 1 {
		t.Fatalf("want 1 attempt, got %d", rf.Attempts)
	}
}

// TestCheckpointKillRestore is the crash-equivalence property for the
// baseline: a run killed mid-circuit and auto-restarted from its last
// checkpoint must finish bit-identical to an uninterrupted run.
func TestCheckpointKillRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randomCircuit(rng, 6, 60)
	c.Measure(3, 0)
	ref, err := mpi(core.Config{PEs: 4, Seed: 7}, c)
	if err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(1)
	in.KillAt(1, fault.Barrier, 30)
	got, err := mpi(core.Config{
		PEs: 4, Seed: 7, Fault: in,
		CheckpointEvery: 10,
		CheckpointDir:   t.TempDir(),
		MaxRestarts:     2,
	}, c)
	if err != nil {
		t.Fatal(err)
	}
	if got.Recoveries != 1 {
		t.Fatalf("want 1 recovery, got %d", got.Recoveries)
	}
	if got.Ckpt.Count == 0 {
		t.Fatal("expected checkpoints to be written")
	}
	if d := got.State.MaxAbsDiff(ref.State); d != 0 {
		t.Fatalf("recovered run deviates by %g", d)
	}
	if got.Cbits != ref.Cbits {
		t.Fatalf("cbits %b vs %b", got.Cbits, ref.Cbits)
	}
}

// TestResumeRejectsMismatchedRun checks manifest validation on resume;
// another rank count is no mismatch but a reshard.
func TestResumeRejectsMismatchedRun(t *testing.T) {
	c := randomCircuit(rand.New(rand.NewSource(3)), 6, 30)
	ref, err := mpi(core.Config{PEs: 4, Seed: 7}, c)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := mpi(core.Config{
		PEs: 4, Seed: 7, CheckpointEvery: 10, CheckpointDir: dir,
	}, c); err != nil {
		t.Fatal(err)
	}
	step, _, ok, err := ckpt.Latest(dir)
	if err != nil || !ok {
		t.Fatalf("no checkpoint written: ok=%v err=%v", ok, err)
	}
	// Another rank count: resharded, ending where the uninterrupted run does.
	got, err := mpi(core.Config{PEs: 2, Seed: 7, Resume: step}, c)
	if err != nil {
		t.Fatalf("resume onto 2 ranks: %v", err)
	}
	if d := got.State.MaxAbsDiff(ref.State); d != 0 || got.PEs != 2 {
		t.Fatalf("resharded onto %d ranks: state deviates by %g", got.PEs, d)
	}
	// Wrong circuit.
	c2 := randomCircuit(rand.New(rand.NewSource(99)), 6, 30)
	if _, err := mpi(core.Config{PEs: 4, Seed: 7, Resume: step}, c2); err == nil {
		t.Fatal("resume with mismatched circuit should fail")
	}
	// Missing directory.
	if _, err := mpi(core.Config{PEs: 4, Seed: 7, Resume: filepath.Join(dir, "nope")}, c); err == nil {
		t.Fatal("resume from a missing directory should fail")
	}
}

// TestResumeMatchesUninterrupted checks explicit resume (no fault): a
// checkpointed prefix plus a resumed suffix equals one uninterrupted run.
func TestResumeMatchesUninterrupted(t *testing.T) {
	c := randomCircuit(rand.New(rand.NewSource(21)), 6, 50)
	c.Measure(2, 0)
	ref, err := mpi(core.Config{PEs: 4, Seed: 13}, c)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := mpi(core.Config{
		PEs: 4, Seed: 13, CheckpointEvery: 20, CheckpointDir: dir,
	}, c); err != nil {
		t.Fatal(err)
	}
	got, err := mpi(core.Config{PEs: 4, Seed: 13, Resume: dir}, c)
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
