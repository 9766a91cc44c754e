package core

import (
	"errors"
	"math/rand"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/ckpt"
	"svsim/internal/compile"
	"svsim/internal/fault"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
)

// TestAsyncCrashEquivalence: a kill mid-run, possibly with a checkpoint
// write still in flight (the writer drains before recovery),
// auto-restarts from the latest complete checkpoint and finishes
// bit-identical.
func TestAsyncCrashEquivalence(t *testing.T) {
	seed := faultSeed(t)
	c := measuredCircuit(42, 6, 60)
	for _, pol := range []sched.Policy{sched.Naive, sched.Lazy} {
		t.Run(string(pol), func(t *testing.T) {
			base := Config{PEs: 4, Seed: 7, Sched: pol}
			ref, err := NewScaleOut(base).Run(c)
			if err != nil {
				t.Fatal(err)
			}
			in := fault.NewInjector(seed)
			in.Arm(fault.Fault{Kind: fault.Kill, Rank: 1, Op: fault.Barrier, After: 30})
			cfg := base
			cfg.Fault = in
			cfg.CheckpointEvery = 5
			cfg.CheckpointDir = ckptTestDir(t)
			cfg.MaxRestarts = 2
			got, err := NewScaleOut(cfg).Run(c)
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
		})
	}
}

// TestElasticReshard is the fleet-size-change property: a checkpoint
// taken at P=8 resumes on P' in {4, 8, 16} — resharded, or in place at
// P'=8 — and the residual circuit finishes bit-identical to the
// uninterrupted P=8 run. The circuit is measurement-free (QFT) so the
// answer is P-independent down to the last bit.
func TestElasticReshard(t *testing.T) {
	c := qftCircuit(10)
	for _, pol := range []sched.Policy{sched.Naive, sched.Lazy} {
		t.Run(string(pol), func(t *testing.T) {
			base := Config{PEs: 8, Seed: 5, Sched: pol}
			ref, err := NewScaleOut(base).Run(c)
			if err != nil {
				t.Fatal(err)
			}
			dir := ckptTestDir(t)
			cfg := base
			cfg.CheckpointEvery = 10
			cfg.CheckpointDir = dir
			if _, err := NewScaleOut(cfg).Run(c); err != nil {
				t.Fatal(err)
			}
			for _, newPEs := range []int{4, 8, 16} {
				rcfg := base
				rcfg.PEs, rcfg.Resume = newPEs, dir
				got, err := Run("scale-out", rcfg, c)
				if err != nil {
					t.Fatalf("P'=%d: %v", newPEs, err)
				}
				if got.PEs != newPEs {
					t.Fatalf("P'=%d: result reports %d PEs", newPEs, got.PEs)
				}
				if d := got.State.MaxAbsDiff(ref.State); d != 0 {
					t.Fatalf("P'=%d: elastic run deviates by %g (want bit-identical)", newPEs, d)
				}
			}
		})
	}
}

// TestElasticReshardInsideDiagonalStretch cuts a checkpoint at every step
// boundary of a circuit whose diagonal stretches are wider than the two
// tables hold (6 qubits, 3 per table), so cuts land inside a stretch:
// between two of its runs and next to its single-gate pieces. The shrunk
// fleet recompiles the residual stream; it has to mark the runs the
// uninterrupted run executed, or its products round differently.
func TestElasticReshardInsideDiagonalStretch(t *testing.T) {
	const n = 6
	rng := rand.New(rand.NewSource(23))
	c := circuit.New("wide_stretches", n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for layer := 0; layer < 3; layer++ {
		// A stretch whose suffix shares a qubit its whole does not.
		c.CU1(0.3, 0, 1).CU1(0.5, 2, 3).CU1(0.7, 2, 4).H(5)
		for i := 0; i < 12; i++ {
			p := rng.Perm(n)
			c.CU1(rng.Float64()*2-1, p[0], p[1]).RZ(rng.Float64()*2-1, p[2])
		}
		for q := 0; q < n; q++ {
			c.H(q).CX(q, (q+1)%n)
		}
	}
	for _, pol := range []sched.Policy{sched.Naive, sched.Lazy} {
		base := Config{PEs: 4, Seed: 5, Sched: pol}
		ref, err := NewScaleOut(base).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		cp, _, err := compile.Compile(c, compile.Config{Sched: pol, PEs: 4})
		if err != nil {
			t.Fatal(err)
		}
		dir := ckptTestDir(t)
		cfg := base
		cfg.CheckpointEvery, cfg.CheckpointDir = 1, dir
		if _, err := NewScaleOut(cfg).Run(c); err != nil {
			t.Fatal(err)
		}
		steps, err := ckpt.CompleteSteps(dir)
		if err != nil {
			t.Fatal(err)
		}
		inside := 0
		for _, step := range steps {
			_, m, err := ckpt.Resolve(ckpt.StepDir(dir, step))
			if err != nil {
				t.Fatal(err)
			}
			if ops := cp.Circuit.Ops; m.OpsDone > 0 && m.OpsDone < len(ops) &&
				ops[m.OpsDone-1].G.Kind.Diagonal() && ops[m.OpsDone].G.Kind.Diagonal() {
				inside++
			}
			rcfg := base
			rcfg.PEs, rcfg.Resume = 2, ckpt.StepDir(dir, step)
			got, err := Run("scale-out", rcfg, c)
			if err != nil {
				t.Fatalf("%s: step %d: %v", pol, step, err)
			}
			if d := got.State.MaxAbsDiff(ref.State); d != 0 {
				t.Fatalf("%s: shrink at step %d (op %d) deviates by %g (want bit-identical)", pol, step, m.OpsDone, d)
			}
		}
		if inside < 3 {
			t.Fatalf("%s: %d of %d cuts fell inside a diagonal stretch", pol, inside, len(steps))
		}
	}
}

// TestElasticShrinkOnKill is the self-healing path: with Config.Elastic
// a killed PE does not force a same-size restart — the run reshards its
// latest checkpoint onto half the fleet and finishes there,
// bit-identical to the fault-free full-size run.
func TestElasticShrinkOnKill(t *testing.T) {
	c := qftCircuit(10)
	for _, pol := range []sched.Policy{sched.Naive, sched.Lazy} {
		t.Run(string(pol), func(t *testing.T) {
			base := Config{PEs: 8, Seed: 5, Sched: pol}
			ref, err := NewScaleOut(base).Run(c)
			if err != nil {
				t.Fatal(err)
			}
			in := fault.NewInjector(faultSeed(t))
			// A rank passes 40 barriers under the lazy plan (QFT's CU1
			// ladders are one step each): die after the first few cuts.
			in.Arm(fault.Fault{Kind: fault.Kill, Rank: 1, Op: fault.Barrier, After: 25})
			cfg := base
			cfg.Fault = in
			cfg.CheckpointEvery = 5
			cfg.CheckpointDir = ckptTestDir(t)
			cfg.MaxRestarts = 1
			cfg.Elastic = true
			got, err := NewScaleOut(cfg).Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if got.PEs != 4 {
				t.Fatalf("want shrink to 4 PEs, got %d", got.PEs)
			}
			if got.Recoveries != 1 {
				t.Fatalf("want 1 recovery, got %d", got.Recoveries)
			}
			if d := got.State.MaxAbsDiff(ref.State); d != 0 {
				t.Fatalf("elastic recovery deviates by %g (want bit-identical)", d)
			}
		})
	}
}

// TestElasticShrinkAcrossMeasurement is the same shrink under the naive
// plan with measurements on both sides of the kill: a remote gate runs
// the single-device kernels on gathered operands and a measurement's
// probability is one summation tree of which each partition holds a
// subtree, so neither the state nor the outcomes depend on the fleet
// size — the half fleet finishes bit-identical to the uninterrupted
// 4-PE run, and both to the single device.
func TestElasticShrinkAcrossMeasurement(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c := randomCircuit(rng, 8, 20)
	c.NumClbits = 3
	c.Measure(7, 0)
	c.Measure(0, 1)
	measured := c.NumGates()
	c.Concat(randomCircuit(rng, 8, 40))
	c.Measure(6, 2)
	c.Concat(randomCircuit(rng, 8, 10))

	single, err := NewSingleDevice(Config{Seed: 2}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{PEs: 4, Seed: 2}
	ref, err := NewScaleOut(base).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(faultSeed(t))
	in.Arm(fault.Fault{Kind: fault.Kill, Rank: 1, Op: fault.Barrier, After: 50})
	cfg := base
	cfg.Fault = in
	cfg.CheckpointEvery = 5
	cfg.CheckpointDir = ckptTestDir(t)
	cfg.MaxRestarts = 1
	cfg.Elastic = true
	got, err := NewScaleOut(cfg).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if got.PEs != 2 || got.Recoveries != 1 {
		t.Fatalf("want one shrink to 2 PEs, got %d PEs after %d recoveries", got.PEs, got.Recoveries)
	}
	if _, m, ok, _ := ckpt.Latest(cfg.CheckpointDir); !ok || m.OpsDone < measured || m.OpsDone >= c.NumGates()-11 {
		t.Fatalf("the shrink must cut between the measurements (ops %d..%d): %+v", measured, c.NumGates()-11, m)
	}
	for name, want := range map[string]*Result{"the 4-PE run": ref, "single": single} {
		if d := got.State.MaxAbsDiff(want.State); d != 0 || got.Cbits != want.Cbits {
			t.Errorf("shrunk run vs %s: state deviates by %g, cbits %b vs %b (want bit-identical)", name, d, got.Cbits, want.Cbits)
		}
	}
}

// TestStopLatchDistributed is the graceful-shutdown contract: a
// triggered latch makes the fleet write one final checkpoint at the
// next boundary and unwind with ErrInterrupted, and a later resume
// finishes bit-identical to an uninterrupted run.
func TestStopLatchDistributed(t *testing.T) {
	c := measuredCircuit(43, 6, 60)
	for _, pol := range []sched.Policy{sched.Naive, sched.Lazy} {
		t.Run(string(pol), func(t *testing.T) {
			base := Config{PEs: 4, Seed: 11, Sched: pol}
			ref, err := NewScaleOut(base).Run(c)
			if err != nil {
				t.Fatal(err)
			}
			dir := ckptTestDir(t)
			stop := &StopLatch{}
			stop.Trigger()
			cfg := base
			cfg.CheckpointEvery = 5
			cfg.CheckpointDir = dir
			cfg.Stop = stop
			_, err = NewScaleOut(cfg).Run(c)
			if !errors.Is(err, ErrInterrupted) {
				t.Fatalf("want ErrInterrupted, got %v", err)
			}
			if _, _, ok, _ := ckpt.Latest(dir); !ok {
				t.Fatal("interrupted run left no final checkpoint")
			}
			rcfg := base
			rcfg.Resume = dir
			got, err := NewScaleOut(rcfg).Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if d := got.State.MaxAbsDiff(ref.State); d != 0 {
				t.Fatalf("resumed run deviates by %g", d)
			}
			if got.Cbits != ref.Cbits {
				t.Fatalf("cbits %b vs %b", got.Cbits, ref.Cbits)
			}
		})
	}
}

// TestStopLatchNoCheckpoint: with no checkpoint to cut there is nothing
// for the ranks to agree on, so a triggered latch must still stop a
// multi-rank run — any rank that reads it unwinds the fleet — and
// polling it must not cost an uninterrupted run a single barrier
// (qft_n15 at 8 PEs keeps its 3592 naive — one per step, a diagonal run
// being one step — / 56 lazy: its first remap folded into the start, the
// second one exchange of seven steps, each one barrier on every PE).
func TestStopLatchNoCheckpoint(t *testing.T) {
	c := measuredCircuit(46, 6, 60)
	for _, pes := range []int{2, 4} {
		for _, pol := range []sched.Policy{sched.Naive, sched.Lazy} {
			stop := &StopLatch{}
			stop.Trigger()
			_, err := NewScaleOut(Config{PEs: pes, Seed: 11, Sched: pol, Stop: stop}).Run(c)
			if !errors.Is(err, ErrInterrupted) {
				t.Errorf("%d PEs %s: want ErrInterrupted, got %v", pes, pol, err)
			}
		}
	}
	e, err := qasmbench.ByName("qft_n15")
	if err != nil {
		t.Fatal(err)
	}
	qft := e.Build()
	for pol, want := range map[sched.Policy]int64{sched.Naive: 3592, sched.Lazy: 56} {
		res, err := NewScaleOut(Config{PEs: 8, Sched: pol, Stop: &StopLatch{}}).Run(qft)
		if err != nil {
			t.Fatal(err)
		}
		if res.Comm.Barriers != want {
			t.Errorf("qft_n15 8 PEs %s: %d barriers with a latch attached, want %d", pol, res.Comm.Barriers, want)
		}
	}
}

// TestStopLatchSingleNode checks the single-node latch semantics on the
// single-device and threaded backends: an interrupted run that made
// progress past its start leaves a resumable checkpoint; a run
// interrupted before any progress unwinds without one.
func TestStopLatchSingleNode(t *testing.T) {
	c := measuredCircuit(44, 6, 50)
	backends := []struct {
		name string
		run  func(Config) (*Result, error)
	}{
		{"single", func(cfg Config) (*Result, error) { return NewSingleDevice(cfg).Run(c) }},
		{"threaded", func(cfg Config) (*Result, error) {
			return Run("threaded", Config{
				PEs: 2, Seed: cfg.Seed, CheckpointEvery: cfg.CheckpointEvery,
				CheckpointDir: cfg.CheckpointDir, Resume: cfg.Resume, Stop: cfg.Stop,
			}, c)
		}},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			dir := ckptTestDir(t)
			stop := &StopLatch{}
			stop.Trigger()
			_, err := b.run(Config{Seed: 13, CheckpointEvery: 10, CheckpointDir: dir, Stop: stop})
			if !errors.Is(err, ErrInterrupted) {
				t.Fatalf("want ErrInterrupted, got %v", err)
			}
			if steps, _ := ckpt.CompleteSteps(dir); len(steps) != 0 {
				t.Fatalf("no-progress interrupt wrote %d checkpoints", len(steps))
			}
		})
	}
}

// TestThreadedCheckpointResume covers the scale-up shared-memory
// backend's new checkpoint/resume path (per-gate and tiled): a resumed
// run matches an uninterrupted one bit-for-bit.
func TestThreadedCheckpointResume(t *testing.T) {
	c := measuredCircuit(45, 6, 50)
	for _, tile := range []bool{false, true} {
		name := "pergate"
		if tile {
			name = "tiled"
		}
		t.Run(name, func(t *testing.T) {
			base := Config{PEs: 2, Seed: 13, TileBits: tileBitsIf(tile, 3)}
			ref, err := Run("threaded", base, c)
			if err != nil {
				t.Fatal(err)
			}
			dir := ckptTestDir(t)
			cfg := base
			cfg.CheckpointEvery = 13
			cfg.CheckpointDir = dir
			mid, err := Run("threaded", cfg, c)
			if err != nil {
				t.Fatal(err)
			}
			if mid.Ckpt.Count == 0 {
				t.Fatal("expected checkpoints to be written")
			}
			steps, err := ckpt.CompleteSteps(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range steps {
				rcfg := base
				rcfg.Resume = ckpt.StepDir(dir, s)
				got, err := Run("threaded", rcfg, c)
				if err != nil {
					t.Fatalf("resume from step %d: %v", s, err)
				}
				if d := got.State.MaxAbsDiff(ref.State); d != 0 {
					t.Fatalf("resume from step %d deviates by %g", s, d)
				}
				if got.Cbits != ref.Cbits {
					t.Fatalf("resume from step %d: cbits %b vs %b", s, got.Cbits, ref.Cbits)
				}
			}
		})
	}
}

// TestTiledAsyncCheckpointInterop: checkpoints written by a tiled run
// through the background writer (quantized to group boundaries) resume
// correctly on both the tiled and per-gate single-device paths.
func TestTiledAsyncCheckpointInterop(t *testing.T) {
	c := qftCircuit(8)
	ref, err := NewSingleDevice(Config{Seed: 3}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	dir := ckptTestDir(t)
	tiled, err := NewSingleDevice(Config{
		Seed: 3, TileBits: 3,
		CheckpointEvery: 7, CheckpointDir: dir,
	}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if tiled.Ckpt.Count == 0 {
		t.Fatal("expected checkpoints to be written")
	}
	steps, err := ckpt.CompleteSteps(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatal("no complete checkpoints on disk")
	}
	for _, s := range steps {
		for _, tile := range []bool{false, true} {
			got, err := NewSingleDevice(Config{
				Seed: 3, TileBits: tileBitsIf(tile, 3), Resume: ckpt.StepDir(dir, s),
			}).Run(c)
			if err != nil {
				t.Fatalf("resume step %d tile=%v: %v", s, tile, err)
			}
			if d := got.State.MaxAbsDiff(ref.State); d != 0 {
				t.Fatalf("resume step %d tile=%v deviates by %g", s, tile, d)
			}
		}
	}
}
