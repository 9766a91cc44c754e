package ckpt

import (
	"os"
	"path/filepath"
	"testing"

	"svsim/internal/statevec"
)

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

// TestPayloadReuse: one payload is captured from one checkpoint to the
// next without reallocating its buffers, and each shard it writes
// restores the state of its own capture.
func TestPayloadReuse(t *testing.T) {
	dir := t.TempDir()
	st := mkState(t, 6, 4)
	p := new(Payload)
	var re, im *float64
	for rank := 0; rank < 3; rank++ {
		st.Re[8*rank] = float64(rank) // the state moves on between cuts
		p.Capture(st)
		if rank == 0 {
			re, im = &p.Re[0], &p.Im[0]
		}
		if len(p.Re) != st.Dim || &p.Re[0] != re || &p.Im[0] != im {
			t.Fatalf("capture %d: %d amplitudes, reused=%v", rank, len(p.Re), &p.Re[0] == re && &p.Im[0] == im)
		}
		sh, err := WritePayloadShard(dir, rank, p)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := ReadShard(dir, sh, 6); err != nil || got.MaxAbsDiff(st) != 0 {
			t.Fatalf("capture %d: shard from a reused payload: err=%v", rank, err)
		}
	}
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
