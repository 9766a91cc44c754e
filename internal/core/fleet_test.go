package core

import (
	"errors"
	"math"
	"path/filepath"
	"testing"

	"svsim/internal/compile"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
	"svsim/internal/statevec"
)

func maxAbsDiffStates(a, b *statevec.State) float64 {
	d := 0.0
	for i := 0; i < a.Dim; i++ {
		d = math.Max(d, math.Abs(a.Re[i]-b.Re[i]))
		d = math.Max(d, math.Abs(a.Im[i]-b.Im[i]))
	}
	return d
}

// A fleet is construct-once/run-many: consecutive jobs on one fleet are
// bit-identical to one-shot backend runs, and the threaded fleet's
// persistent pool survives across jobs.
func TestFleetRunsManyJobsBitIdentical(t *testing.T) {
	for _, backend := range []string{"single", "threaded", "scale-up", "scale-out"} {
		f, err := NewFleet(backend, Config{PEs: 4, Style: statevec.Vectorized})
		if err != nil {
			t.Fatalf("%s: NewFleet: %v", backend, err)
		}
		for _, name := range []string{"bv_n14", "cc_n12", "bv_n14"} {
			e, err := qasmbench.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			c := e.Build()
			job := JobConfig{Seed: 7, Sched: sched.Lazy}
			got, err := f.Run(c, job)
			if err != nil {
				t.Fatalf("%s: fleet run %s: %v", backend, name, err)
			}
			oneShot, err := NewBackend(backend, Config{
				PEs: 4, Style: statevec.Vectorized, Seed: 7, Sched: sched.Lazy,
			})
			if err != nil {
				t.Fatal(err)
			}
			want, err := oneShot.Run(e.Build())
			if err != nil {
				t.Fatalf("%s: one-shot run %s: %v", backend, name, err)
			}
			if d := maxAbsDiffStates(got.State, want.State); d != 0 {
				t.Fatalf("%s: fleet vs one-shot %s: MaxAbsDiff=%g", backend, name, d)
			}
		}
		if n := f.Jobs(); n != 3 {
			t.Fatalf("%s: fleet jobs = %d, want 3", backend, n)
		}
		f.Close()
		cc, err := qasmbench.ByName("cc_n12")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Run(cc.Build(), JobConfig{Seed: 1}); err == nil {
			t.Fatalf("%s: run on closed fleet succeeded", backend)
		}
	}
}

// Preempting a job on fleet A (stop latch -> final checkpoint ->
// ErrInterrupted) and resuming it elastically on fleet B with a
// different PE count must reproduce the uninterrupted run bit for bit.
func TestFleetPreemptElasticResumeBitIdentical(t *testing.T) {
	e, err := qasmbench.ByName("qft_n15")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	fleetA, err := NewFleet("scale-out", Config{PEs: 4, Style: statevec.Vectorized})
	if err != nil {
		t.Fatal(err)
	}
	defer fleetA.Close()
	fleetB, err := NewFleet("scale-out", Config{PEs: 2, Style: statevec.Vectorized})
	if err != nil {
		t.Fatal(err)
	}
	defer fleetB.Close()

	// Preempt before the run starts: the first checkpoint boundary votes
	// the latch, writes the final checkpoint, and unwinds.
	latch := &StopLatch{}
	latch.Trigger()
	ckdir := filepath.Join(dir, "job1")
	job := JobConfig{Seed: 3, Sched: sched.Lazy, CheckpointEvery: 2, CheckpointDir: ckdir, Stop: latch}
	_, err = fleetA.Run(e.Build(), job)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("preempted run: err = %v, want ErrInterrupted", err)
	}

	// Resume the checkpoint on the differently-sized fleet B: Run
	// reshards it.
	rjob := JobConfig{Seed: 3, Sched: sched.Lazy, Resume: ckdir}
	got, err := fleetB.Run(e.Build(), rjob)
	if err != nil {
		t.Fatalf("elastic resume on fleet B: %v", err)
	}
	if got.PEs != 2 {
		t.Fatalf("resumed on %d PEs, want 2", got.PEs)
	}

	// Reference: the same job uninterrupted on fleet A.
	want, err := fleetA.Run(e.Build(), JobConfig{Seed: 3, Sched: sched.Lazy})
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiffStates(got.State, want.State); d != 0 {
		t.Fatalf("preempt+elastic-resume vs uninterrupted: MaxAbsDiff=%g", d)
	}
}

// Per-tenant plan-cache views thread through JobConfig: two jobs with
// the same skeleton from different views compile once, and the second
// view's hit is attributed as cross-label.
func TestFleetPlanCacheViewAttribution(t *testing.T) {
	shared := compile.NewCache(8)
	f, err := NewFleet("threaded", Config{PEs: 2, Style: statevec.Vectorized})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e, err := qasmbench.ByName("bv_n14")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(e.Build(), JobConfig{Seed: 1, Fuse: true, Plans: shared.View("alice")}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(e.Build(), JobConfig{Seed: 1, Fuse: true, Plans: shared.View("bob")}); err != nil {
		t.Fatal(err)
	}
	st := shared.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("shared cache stats = %+v, want 1 miss + 1 hit", st)
	}
	if st.CrossLabelHits != 1 {
		t.Fatalf("cross-label hits = %d, want 1 (bob hit alice's entry)", st.CrossLabelHits)
	}
	by := shared.StatsByLabel()
	if by["alice"].Misses != 1 || by["bob"].Hits != 1 || by["bob"].CrossLabelHits != 1 {
		t.Fatalf("per-label stats = %+v", by)
	}
}
