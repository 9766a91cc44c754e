package core

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/ckpt"
	"svsim/internal/compile"
	"svsim/internal/fault"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
)

// faultSeed lets CI sweep the injector seed (SVSIM_FAULT_SEED).
func faultSeed(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("SVSIM_FAULT_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("bad SVSIM_FAULT_SEED %q: %v", s, err)
	}
	return v
}

// ckptTestDir places checkpoints under SVSIM_CKPT_ARTIFACT_DIR when set
// (so CI can upload manifests of failed runs), else in a temp dir.
func ckptTestDir(t *testing.T) string {
	t.Helper()
	base := os.Getenv("SVSIM_CKPT_ARTIFACT_DIR")
	if base == "" {
		return t.TempDir()
	}
	d := filepath.Join(base, strings.ReplaceAll(t.Name(), "/", "_"))
	if err := os.MkdirAll(d, 0o755); err != nil {
		t.Fatal(err)
	}
	return d
}

func measuredCircuit(seed int64, n, gates int) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := randomCircuit(rng, n, gates)
	c.Measure(n-1, 0)
	c.Measure(0, 1)
	return c
}

// TestCrashEquivalence is the kill-and-restore property: a run killed at
// a gate boundary and auto-restarted from its last checkpoint finishes
// bit-identical to an uninterrupted run — same amplitudes, same
// classical bits — on every distributed backend and both schedules (the
// lazy executor additionally restores its qubit permutation from the
// manifest).
func TestCrashEquivalence(t *testing.T) {
	seed := faultSeed(t)
	c := measuredCircuit(31, 6, 60)
	backends := []struct {
		name string
		run  func(Config) (*Result, error)
	}{
		{"scale-up", func(cfg Config) (*Result, error) { return NewScaleUp(cfg).Run(c) }},
		{"scale-out", func(cfg Config) (*Result, error) { return NewScaleOut(cfg).Run(c) }},
	}
	for _, b := range backends {
		for _, pol := range []sched.Policy{sched.Naive, sched.Lazy} {
			t.Run(b.name+"/"+string(pol), func(t *testing.T) {
				base := Config{PEs: 4, Seed: 7, Sched: pol}
				ref, err := b.run(base)
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
				got, err := b.run(cfg)
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
					t.Fatalf("recovered run deviates by %g (want bit-identical)", d)
				}
				if got.Cbits != ref.Cbits {
					t.Fatalf("cbits %b vs %b", got.Cbits, ref.Cbits)
				}
			})
		}
	}
}

// TestSingleDeviceResume checks the degenerate single-PE form: a
// checkpointed run resumed from disk matches an uninterrupted one.
func TestSingleDeviceResume(t *testing.T) {
	c := measuredCircuit(32, 6, 50)
	ref, err := NewSingleDevice(Config{Seed: 13}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	dir := ckptTestDir(t)
	mid, err := NewSingleDevice(Config{Seed: 13, CheckpointEvery: 20, CheckpointDir: dir}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Ckpt.Count == 0 {
		t.Fatal("expected checkpoints to be written")
	}
	got, err := NewSingleDevice(Config{Seed: 13, Resume: dir}).Run(c)
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

// TestDistributedResumeExplicit resumes a distributed run explicitly (no
// fault) from a checkpoint base directory.
func TestDistributedResumeExplicit(t *testing.T) {
	c := measuredCircuit(33, 6, 50)
	for _, pol := range []sched.Policy{sched.Naive, sched.Lazy} {
		t.Run(string(pol), func(t *testing.T) {
			base := Config{PEs: 4, Seed: 17, Sched: pol}
			ref, err := NewScaleOut(base).Run(c)
			if err != nil {
				t.Fatal(err)
			}
			dir := ckptTestDir(t)
			cfg := base
			cfg.CheckpointEvery = 15
			cfg.CheckpointDir = dir
			if _, err := NewScaleOut(cfg).Run(c); err != nil {
				t.Fatal(err)
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

// TestRunFailureWhenNoCheckpoint checks the structured terminal failure
// when a rank dies with recovery unconfigured.
func TestRunFailureWhenNoCheckpoint(t *testing.T) {
	c := measuredCircuit(34, 6, 40)
	in := fault.NewInjector(faultSeed(t))
	in.Arm(fault.Fault{Kind: fault.Kill, Rank: 0, Op: fault.Barrier, After: 10})
	_, err := NewScaleUp(Config{PEs: 4, Seed: 7, Fault: in}).Run(c)
	var rf *RunFailure
	if !errors.As(err, &rf) {
		t.Fatalf("want *RunFailure, got %T: %v", err, err)
	}
	if rf.Attempts != 1 {
		t.Fatalf("want 1 attempt, got %d", rf.Attempts)
	}
	var ke *fault.KillError
	if !errors.As(err, &ke) {
		t.Fatalf("cause should unwrap to the kill, got %v", err)
	}
}

// TestRunFailureWhenRestartsExhausted kills the same rank repeatedly so
// recovery runs out of restart budget.
func TestRunFailureWhenRestartsExhausted(t *testing.T) {
	c := measuredCircuit(35, 6, 60)
	in := fault.NewInjector(faultSeed(t))
	// Fire on every barrier from the 30th on: each restart dies again.
	in.Arm(fault.Fault{Rank: 1, Op: fault.Barrier, Kind: fault.Kill, After: 30, Count: 1 << 30})
	_, err := NewScaleOut(Config{
		PEs: 4, Seed: 7, Sched: sched.Lazy, Fault: in,
		CheckpointEvery: 5, CheckpointDir: ckptTestDir(t), MaxRestarts: 2,
	}).Run(c)
	var rf *RunFailure
	if !errors.As(err, &rf) {
		t.Fatalf("want *RunFailure, got %T: %v", err, err)
	}
	if rf.Attempts != 3 { // initial + 2 restarts
		t.Fatalf("want 3 attempts, got %d", rf.Attempts)
	}
}

// TestResumeValidationRejectsMismatch covers the manifest checks.
func TestResumeValidationRejectsMismatch(t *testing.T) {
	c := measuredCircuit(36, 6, 40)
	dir := ckptTestDir(t)
	cfg := Config{PEs: 4, Seed: 7, Sched: sched.Naive, CheckpointEvery: 10, CheckpointDir: dir}
	if _, err := NewScaleOut(cfg).Run(c); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		run  func() error
		want string
	}{
		{"v1 checkpoint on other pes", func() error {
			// A reshard needs the op cut v1 manifests never recorded.
			v1 := ckptTestDir(t)
			if _, err := NewScaleOut(Config{PEs: 4, Seed: 7, CheckpointEvery: 10, CheckpointDir: v1}).Run(c); err != nil {
				return err
			}
			step, _, _, err := ckpt.Latest(v1)
			if err != nil {
				return err
			}
			man := filepath.Join(step, "MANIFEST.json")
			data, err := os.ReadFile(man)
			if err != nil {
				return err
			}
			data = []byte(strings.Replace(string(data), strconv.Quote(ckpt.Schema), strconv.Quote(ckpt.SchemaV1), 1))
			if err := os.WriteFile(man, data, 0o644); err != nil {
				return err
			}
			_, err = NewScaleOut(Config{PEs: 2, Seed: 7, Resume: step}).Run(c)
			return err
		}, ckpt.SchemaV1},
		{"wrong sched", func() error {
			_, err := NewScaleOut(Config{PEs: 4, Seed: 7, Sched: sched.Lazy, Resume: dir}).Run(c)
			return err
		}, "sched"},
		{"wrong backend", func() error {
			_, err := NewScaleUp(Config{PEs: 4, Seed: 7, Resume: dir}).Run(c)
			return err
		}, "backend"},
		{"wrong circuit", func() error {
			c2 := measuredCircuit(99, 6, 40)
			_, err := NewScaleOut(Config{PEs: 4, Seed: 7, Resume: dir}).Run(c2)
			return err
		}, "circuit"},
		{"missing dir", func() error {
			_, err := NewScaleOut(Config{PEs: 4, Seed: 7, Resume: filepath.Join(dir, "absent")}).Run(c)
			return err
		}, "checkpoint"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatal("expected a validation error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// Another PE count is no mismatch: the checkpoint is resharded onto
	// it and ends where the uninterrupted run does (naive plan, so
	// measurements included).
	t.Run("other pes reshards", func(t *testing.T) {
		ref, err := NewScaleOut(Config{PEs: 4, Seed: 7}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewScaleOut(Config{PEs: 2, Seed: 7, Resume: dir}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if d := got.State.MaxAbsDiff(ref.State); d != 0 || got.Cbits != ref.Cbits || got.PEs != 2 {
			t.Fatalf("resharded onto %d PEs: state deviates by %g, cbits %b vs %b", got.PEs, d, got.Cbits, ref.Cbits)
		}
	})
}

// TestReshardFallsBackPastCorruptCheckpoint: a resume onto another fleet
// size whose newest checkpoint is torn falls back to the next older one
// under CheckpointDir, as an in-place resume does, and still finishes
// bit-identical to the uninterrupted run.
func TestReshardFallsBackPastCorruptCheckpoint(t *testing.T) {
	c := measuredCircuit(47, 6, 40)
	ref, err := NewScaleOut(Config{PEs: 4, Seed: 7}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	base := ckptTestDir(t)
	if _, err := NewScaleOut(Config{PEs: 4, Seed: 7, CheckpointEvery: 15, CheckpointDir: base}).Run(c); err != nil {
		t.Fatal(err)
	}
	steps, err := ckpt.CompleteSteps(base)
	if err != nil || len(steps) < 2 {
		t.Fatalf("need two checkpoints, have %v (err %v)", steps, err)
	}
	newest, m, err := ckpt.Resolve(ckpt.StepDir(base, steps[0]))
	if err != nil {
		t.Fatal(err)
	}
	shard := filepath.Join(newest, m.Shards[1].File)
	data, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(shard, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Run("scale-out", Config{PEs: 2, Seed: 7, Resume: base, CheckpointDir: base}, c)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.State.MaxAbsDiff(ref.State); d != 0 || got.Cbits != ref.Cbits {
		t.Fatalf("reshard past a torn checkpoint: state deviates by %g, cbits %b vs %b", d, got.Cbits, ref.Cbits)
	}
}

// TestCorruptShardRejectedOnResume flips one byte in a shard and checks
// the CRC validation surfaces a typed ShardError.
func TestCorruptShardRejectedOnResume(t *testing.T) {
	c := measuredCircuit(37, 6, 40)
	dir := ckptTestDir(t)
	cfg := Config{PEs: 4, Seed: 7, CheckpointEvery: 10, CheckpointDir: dir}
	if _, err := NewScaleOut(cfg).Run(c); err != nil {
		t.Fatal(err)
	}
	step, m, ok, err := ckpt.Latest(dir)
	if err != nil || !ok {
		t.Fatalf("no checkpoint: ok=%v err=%v", ok, err)
	}
	shard := filepath.Join(step, m.Shards[2].File)
	data, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(shard, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = NewScaleOut(Config{PEs: 4, Seed: 7, Resume: dir}).Run(c)
	var se *ckpt.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("want *ckpt.ShardError, got %T: %v", err, err)
	}
}

// TestCheckpointCadenceAcrossGroupedSteps: a tiled group and a diagonal
// run are one step that may span a multiple of CheckpointEvery; the cut
// then lands on the first boundary at or after the multiple instead of
// being skipped. An untiled qft_n15 (540 steps, runs of at most 14) cuts
// once per multiple; a tiled one cuts at the first group edge past each
// multiple, i.e. once per interval of 16 that holds an edge past the
// latest cut — far more than the edges that happen to be multiples. Every
// checkpoint resumes to the uninterrupted state bit for bit.
func TestCheckpointCadenceAcrossGroupedSteps(t *testing.T) {
	e, err := qasmbench.ByName("qft_n15")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build()
	const every = 16
	for _, tile := range []bool{false, true} {
		base := Config{TileBits: tileBitsIf(tile, 0)} // derived: qft_n15 tiles at 2^13
		ref, err := NewSingleDevice(base).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		cp, _, err := compile.Compile(c, compile.Config{TileBits: base.TileBits})
		if err != nil {
			t.Fatal(err)
		}
		// The step boundaries of the plan: every step that is not inside
		// a tiled group or a run.
		inside := make([]bool, len(cp.Plan.Steps)+1)
		for _, run := range cp.Runs {
			for si := run.Step + 1; si < run.Step+run.Gates; si++ {
				inside[si] = true
			}
		}
		if tile {
			for _, g := range cp.Tiles.Groups {
				for si := g.Start + 1; g.Tiled && si < g.End; si++ {
					inside[si] = true
				}
			}
		}
		var want []int
		last := 0
		for si := 1; si < len(cp.Plan.Steps); si++ {
			if !inside[si] && si/every > last/every {
				want = append(want, si)
				last = si
			}
		}
		if !tile && len(want) != (len(cp.Plan.Steps)-1)/every {
			t.Fatalf("untiled: %d cuts planned, want one per multiple of %d below %d steps", len(want), every, len(cp.Plan.Steps))
		}

		dir := ckptTestDir(t)
		cfg := base
		cfg.CheckpointEvery, cfg.CheckpointDir = every, dir
		res, err := NewSingleDevice(cfg).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ckpt.CompleteSteps(dir)
		if err != nil {
			t.Fatal(err)
		}
		sort.Ints(got)
		if !reflect.DeepEqual(got, want) || res.Ckpt.Count != int64(len(want)) {
			t.Fatalf("tile=%v: checkpoints at steps %v (count %d), want %v", tile, got, res.Ckpt.Count, want)
		}
		for _, step := range got {
			rcfg := base
			rcfg.Resume = ckpt.StepDir(dir, step)
			r, err := NewSingleDevice(rcfg).Run(c)
			if err != nil {
				t.Fatalf("tile=%v: resume from step %d: %v", tile, step, err)
			}
			if d := r.State.MaxAbsDiff(ref.State); d != 0 {
				t.Fatalf("tile=%v: resume from step %d deviates by %g", tile, step, d)
			}
		}
	}
}

// TestCheckpointingStartsNothingBeforeItsFirstCut: a run whose interval
// is never reached starts no background writer and takes no snapshot; a
// run that cuts starts both.
func TestCheckpointingStartsNothingBeforeItsFirstCut(t *testing.T) {
	c := measuredCircuit(38, 6, 40)
	for _, tc := range []struct {
		every int
		cuts  bool
	}{
		{1 << 30, false},
		{10, true},
	} {
		cfg := Config{PEs: 2, Seed: 3, CheckpointEvery: tc.every, CheckpointDir: t.TempDir()}
		cp, _, err := compileCircuit(cfg, c, cfg.PEs)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := newRuntime("scale-out", cfg, cp, oneSidedTransport, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		if rt.ck.aw != nil || rt.ck.snaps != nil {
			t.Fatalf("every=%d: the writer started before the run", tc.every)
		}
		res, err := rt.run()
		if err != nil {
			t.Fatal(err)
		}
		if started := rt.ck.aw != nil && rt.ck.snaps != nil; started != tc.cuts || (res.Ckpt.Count > 0) != tc.cuts {
			t.Errorf("every=%d: writer started=%v after %d checkpoints, want %v",
				tc.every, started, res.Ckpt.Count, tc.cuts)
		}
	}
}

// TestCheckpointSnapshotAllocatedOnce: each rank copies its partition
// into one snapshot that every checkpoint of the run reuses, and the
// encoder allocates nothing per amplitude — so eight checkpoints
// allocate no more than one does, give or take their manifests and
// (under the race detector, which drops pooled items) a few encoding
// chunks.
func TestCheckpointSnapshotAllocatedOnce(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // pooled chunks survive
	const n = 16
	c := randomCircuit(rand.New(rand.NewSource(39)), n, 180)
	stateBytes := uint64(16) << n
	allocs := func(every int) (uint64, int64) {
		var m0, m1 goruntime.MemStats
		goruntime.ReadMemStats(&m0)
		res, err := NewScaleOut(Config{PEs: 2, CheckpointEvery: every, CheckpointDir: t.TempDir()}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		goruntime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc, res.Ckpt.Count
	}
	allocs(90) // warm the encoder's chunk pool
	one, n1 := allocs(150)
	many, n8 := allocs(20)
	if n1 != 1 || n8 < 4 {
		t.Fatalf("%d and %d checkpoints, want 1 and >= 4", n1, n8)
	}
	t.Logf("%d checkpoints allocated %d bytes, one %d (state %d)", n8, many, one, stateBytes)
	if many > one+stateBytes {
		t.Errorf("%d checkpoints allocated %d bytes, one allocated %d: more than a state (%d bytes) apart",
			n8, many, one, stateBytes)
	}
}
