package ckpt

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"svsim/internal/statevec"
)

func TestDirtyTracker(t *testing.T) {
	d := NewDirty(1<<6, 4) // 64 amplitudes, 4 tiles of 16
	if d.Count() != 4 {
		t.Fatalf("fresh tracker dirty count = %d, want all 4", d.Count())
	}
	d.Clear()
	if d.Count() != 0 || d.Any() {
		t.Fatal("cleared tracker still dirty")
	}

	// Control bit 5 (above the tile boundary at bit 4): only tiles whose
	// index has bit 1 set (tiles 2 and 3) can hold satisfying amplitudes.
	d.MarkCtrls(1 << 5)
	if got := d.Tiles(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("MarkCtrls(bit5) tiles = %v, want [2 3]", got)
	}

	// A control below the tile boundary constrains nothing tile-wise.
	d.Clear()
	d.MarkCtrls(1 << 2)
	if d.Count() != 4 {
		t.Fatalf("sub-tile control marked %d tiles, want all 4", d.Count())
	}

	d.Clear()
	d.MarkAll()
	if d.Count() != 4 {
		t.Fatal("MarkAll did not mark everything")
	}

	// Tile bits wider than the partition clamp to one tile.
	small := NewDirty(8, 12)
	if small.Count() != 1 {
		t.Fatalf("clamped tracker has %d tiles, want 1", small.Count())
	}
}

func TestDeltaShardRoundTrip(t *testing.T) {
	dir := t.TempDir()
	base := mkState(t, 6, 1)
	mod := base.Clone()
	d := NewDirty(mod.Dim, 4)
	d.Clear()

	// Dirty two of four tiles.
	for _, i := range []int{3, 50} {
		mod.Re[i] += 100
		mod.Im[i] -= 100
	}
	d.MarkTile(3 >> 4)
	d.MarkTile(50 >> 4)

	p := new(Payload).CaptureTiles(mod, d)
	if len(p.Tiles) != 2 {
		t.Fatalf("captured %d tiles, want 2", len(p.Tiles))
	}
	if d.Any() {
		t.Fatal("capture did not clear the tracker")
	}
	sh, err := WritePayloadShard(dir, 1, p)
	if err != nil {
		t.Fatal(err)
	}

	got := base.Clone()
	if err := ApplyDeltaShard(dir, sh, got); err != nil {
		t.Fatal(err)
	}
	if got.MaxAbsDiff(mod) != 0 {
		t.Fatal("delta apply did not reproduce the modified state")
	}

	t.Run("bit flip fails CRC", func(t *testing.T) {
		path := filepath.Join(dir, sh.File)
		data, _ := os.ReadFile(path)
		data[len(data)-1] ^= 1
		os.WriteFile(path, data, 0o644)
		err := ApplyDeltaShard(dir, sh, base.Clone())
		var se *ShardError
		if !errors.As(err, &se) || !strings.Contains(se.Reason, "CRC32") {
			t.Fatalf("corrupt delta error = %v, want CRC mismatch", err)
		}
	})

	t.Run("wrong qubit count", func(t *testing.T) {
		other := statevec.New(3)
		err := ApplyDeltaShard(dir, sh, other)
		var se *ShardError
		if !errors.As(err, &se) || !strings.Contains(se.Reason, "qubits") {
			t.Fatalf("qubit mismatch error = %v", err)
		}
	})
}

func TestCaptureFullPayloadShard(t *testing.T) {
	dir := t.TempDir()
	st := mkState(t, 4, 2)
	p := CaptureFull(st)
	st.Re[0] = -999 // payload must be a copy, not an alias
	sh, err := WritePayloadShard(dir, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadShard(dir, sh, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Re[0] == -999 {
		t.Fatal("payload aliased live state")
	}
}

// TestPayloadReuse: one payload carries a full capture, then a delta
// packed into its buffers' prefix, then a full capture again, without
// reallocating them, and each shard it writes restores what was
// captured. A delta of a clean tracker is an empty delta shard, not a
// full shard of no amplitudes.
func TestPayloadReuse(t *testing.T) {
	dir := t.TempDir()
	st := mkState(t, 6, 4)
	d := NewDirty(st.Dim, 4)
	p := new(Payload).Capture(st)
	re, im := &p.Re[0], &p.Im[0]
	d.Clear()

	base := st.Clone()
	st.Re[40] = 40
	d.MarkTile(40 >> 4)
	p.CaptureTiles(st, d)
	if len(p.Tiles) != 1 || len(p.Re) != 16 || &p.Re[0] != re || &p.Im[0] != im {
		t.Fatalf("delta capture: %d tiles, %d amplitudes, reused=%v", len(p.Tiles), len(p.Re), &p.Re[0] == re)
	}
	sh, err := WritePayloadShard(dir, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	got := base.Clone()
	if err := ApplyDeltaShard(dir, sh, got); err != nil || got.MaxAbsDiff(st) != 0 {
		t.Fatalf("delta from a reused payload: err=%v", err)
	}

	p.CaptureTiles(st, d) // nothing dirtied since
	if p.Tiles == nil || len(p.Tiles) != 0 {
		t.Fatalf("clean tracker captured tiles %v, want an empty delta", p.Tiles)
	}
	if sh, err = WritePayloadShard(dir, 1, p); err != nil {
		t.Fatal(err)
	}
	if err := ApplyDeltaShard(dir, sh, got); err != nil || got.MaxAbsDiff(st) != 0 {
		t.Fatalf("empty delta: err=%v", err)
	}

	st.Im[3] = -3
	p.Capture(st)
	if p.Tiles != nil || len(p.Re) != st.Dim || &p.Re[0] != re || &p.Im[0] != im {
		t.Fatalf("full capture after a delta: tiles=%v, %d amplitudes, reused=%v", p.Tiles, len(p.Re), &p.Re[0] == re)
	}
	if sh, err = WritePayloadShard(dir, 2, p); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadShard(dir, sh, 6); err != nil || got.MaxAbsDiff(st) != 0 {
		t.Fatalf("full shard from a reused payload: err=%v", err)
	}
}

// writeChainCkpt writes one single-PE checkpoint (full or delta) with a
// manifest, returning the payload it captured.
func writeChainCkpt(t *testing.T, base string, step int, kind string, parent int, st *statevec.State, d *Dirty) {
	t.Helper()
	dir := StepDir(base, step)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var p *Payload
	if kind == KindFull {
		p = CaptureFull(st)
	} else {
		p = new(Payload).CaptureTiles(st, d)
	}
	sh, err := WritePayloadShard(dir, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	m := &Manifest{
		Backend: "single", Circuit: "chain", NumQubits: st.N, PEs: 1,
		Sched: "lazy", Step: step, Kind: kind, Parent: parent, OpsDone: step,
		Shards: []Shard{sh},
	}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
}

func TestChainRestore(t *testing.T) {
	base := t.TempDir()
	st := mkState(t, 6, 3)
	d := NewDirty(st.Dim, 4)

	writeChainCkpt(t, base, 0, KindFull, 0, st, d)
	d.Clear()

	st.Re[7] = 7777
	d.MarkTile(0)
	writeChainCkpt(t, base, 5, KindDelta, 0, st, d)

	st.Im[40] = -4040
	d.MarkTile(40 >> 4)
	writeChainCkpt(t, base, 9, KindDelta, 5, st, d)

	dir, m, ok, err := Latest(base)
	if err != nil || !ok {
		t.Fatalf("Latest: ok=%v err=%v", ok, err)
	}
	links, err := Chain(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 3 || links[0].Manifest.Step != 0 || links[2].Manifest.Step != 9 {
		t.Fatalf("chain steps = %v", chainSteps(links))
	}
	got, err := RestoreShardChain(links, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxAbsDiff(st) != 0 {
		t.Fatal("chain restore did not reproduce the final state")
	}

	t.Run("broken parent link", func(t *testing.T) {
		if err := os.RemoveAll(StepDir(base, 5)); err != nil {
			t.Fatal(err)
		}
		if _, err := Chain(dir, m); err == nil {
			t.Fatal("chain with missing parent resolved")
		}
	})
}

func chainSteps(links []ChainLink) []int {
	out := make([]int, len(links))
	for i, l := range links {
		out[i] = l.Manifest.Step
	}
	return out
}

// TestAsyncWriter drives the writer the way the runtime does: one
// payload, recaptured after Wait reports the previous job landed. Every
// checkpoint holds the state of its own capture.
func TestAsyncWriter(t *testing.T) {
	base := t.TempDir()
	st := mkState(t, 4, 5)
	var jobs int
	w := NewAsyncWriter()
	w.OnJob = func(step int, bytes int64, ns int64, err error) {
		if err == nil && bytes > 0 {
			jobs++
		}
	}
	snap := new(Payload)
	want := map[int]*statevec.State{}
	for _, step := range []int{2, 4} {
		if err := w.Wait(); err != nil {
			t.Fatal(err)
		}
		st.Re[step] = float64(step) // the state moves on between cuts
		want[step] = st.Clone()
		m := &Manifest{
			Backend: "single", Circuit: "async", NumQubits: 4, PEs: 1,
			Sched: "lazy", Step: step, Kind: KindFull, OpsDone: step,
		}
		if err := w.Submit(StepDir(base, step), m, []*Payload{snap.Capture(st)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if jobs != 2 {
		t.Fatalf("OnJob saw %d successful jobs, want 2", jobs)
	}
	for step, st := range want {
		dir := StepDir(base, step)
		m, err := ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadShard(dir, m.Shards[0], 4)
		if err != nil {
			t.Fatal(err)
		}
		if got.MaxAbsDiff(st) != 0 {
			t.Fatalf("step %d: written shard differs from its capture", step)
		}
	}
}

func TestAsyncWriterStickyError(t *testing.T) {
	base := t.TempDir()
	// A file where the checkpoint directory should go makes MkdirAll fail.
	bad := filepath.Join(base, "ckpt-1")
	if err := os.WriteFile(bad, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	st := mkState(t, 2, 1)
	w := NewAsyncWriter()
	m := func(step int) *Manifest {
		return &Manifest{Backend: "single", Circuit: "c", NumQubits: 2, PEs: 1,
			Sched: "lazy", Step: step, Kind: KindFull}
	}
	if err := w.Submit(bad, m(1), []*Payload{CaptureFull(st)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(); err == nil {
		t.Fatal("Wait swallowed the write failure")
	}
	if err := w.Submit(filepath.Join(base, "ckpt-2"), m(2), []*Payload{CaptureFull(st)}); err == nil {
		t.Fatal("Submit after a failed write was accepted")
	}
	if err := w.Close(); err == nil {
		t.Fatal("writer swallowed the write failure")
	}
	if w.Err() == nil {
		t.Fatal("error did not latch")
	}
}

// TestTornManifestFallsBack re-execs the test binary with the
// SVSIM_CKPT_CRASHPOINT failpoint armed so the child process dies
// between writing the step-20 manifest's temp file and renaming it into
// place — a real mid-checkpoint kill. Restore must fall back to the
// previous complete checkpoint.
func TestTornManifestFallsBack(t *testing.T) {
	base := t.TempDir()
	if os.Getenv("SVSIM_TORN_HELPER") == "1" {
		st := statevec.New(2)
		helperCkpt(base, 10, st) // completes: crashpoint arms only in the child
		return
	}

	// Parent: first write a complete checkpoint at step 10 ourselves,
	// then have the child die mid-manifest at step 20.
	st := mkState(t, 2, 9)
	dir10 := StepDir(base, 10)
	os.MkdirAll(dir10, 0o755)
	sh, err := WriteShard(dir10, 0, st)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteManifest(dir10, &Manifest{Backend: "single", Circuit: "t",
		NumQubits: 2, PEs: 1, Sched: "lazy", Step: 10, Shards: []Shard{sh}}); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(os.Args[0], "-test.run", "TestTornManifestFallsBack")
	cmd.Env = append(os.Environ(),
		"SVSIM_TORN_HELPER=1",
		"SVSIM_TORN_BASE="+base,
		"SVSIM_CKPT_CRASHPOINT="+manifestName)
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 42 {
		t.Fatalf("helper did not die at the crashpoint: err=%v out=%s", err, out)
	}

	// The torn step-20 checkpoint must be invisible: temp manifest on
	// disk, no real one, Latest falls back to step 10.
	dir20 := StepDir(base, 20)
	if _, err := os.Stat(filepath.Join(dir20, manifestName)); !os.IsNotExist(err) {
		t.Fatalf("torn checkpoint has a real manifest (stat err=%v)", err)
	}
	dir, m, ok, err := Latest(base)
	if err != nil || !ok {
		t.Fatalf("Latest after torn write: ok=%v err=%v", ok, err)
	}
	if m.Step != 10 || dir != dir10 {
		t.Fatalf("fell back to step %d, want 10", m.Step)
	}
	got, err := ReadShard(dir, m.Shards[0], 2)
	if err != nil || got.MaxAbsDiff(st) != 0 {
		t.Fatalf("fallback checkpoint unreadable: %v", err)
	}
}

// helperCkpt runs in the torn-write child: it writes a step-20
// checkpoint whose manifest rename is interrupted by the crashpoint.
func helperCkpt(parentBase string, step int, st *statevec.State) {
	base := os.Getenv("SVSIM_TORN_BASE")
	if base == "" {
		base = parentBase
	}
	dir := StepDir(base, 20)
	os.MkdirAll(dir, 0o755)
	sh, err := WriteShard(dir, 0, st)
	if err != nil {
		os.Exit(3)
	}
	// The crashpoint fires inside WriteManifest, before the rename.
	WriteManifest(dir, &Manifest{Backend: "single", Circuit: "t",
		NumQubits: 2, PEs: 1, Sched: "lazy", Step: 20, Shards: []Shard{sh}})
	os.Exit(0) // unreachable when the crashpoint is armed
}
