package mpibase

import (
	"testing"

	"svsim/internal/core"
	"svsim/internal/obs"
	"svsim/internal/qasmbench"
)

// TestBaselineTracing checks the two-sided observed path: per-rank
// tracks, message attribution on spans, and result invariance.
func TestBaselineTracing(t *testing.T) {
	e, err := qasmbench.ByName("bv_n14")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build()
	const ranks = 4

	plain, err := mpi(core.Config{PEs: ranks, Seed: 5}, c)
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer()
	metrics := obs.NewMetrics()
	traced, err := mpi(core.Config{PEs: ranks, Seed: 5, Trace: tracer, Metrics: metrics}, c)
	if err != nil {
		t.Fatal(err)
	}
	if d := plain.State.MaxAbsDiff(traced.State); d != 0 {
		t.Fatalf("tracing changed the result (maxAbsDiff=%g)", d)
	}
	if plain.MPI != traced.MPI {
		t.Fatalf("tracing changed MPI stats:\n  plain  %v\n  traced %v", plain.MPI, traced.MPI)
	}
	tracks := tracer.Tracks()
	if len(tracks) != ranks {
		t.Fatalf("tracks = %d, want %d", len(tracks), ranks)
	}
	var msgBytes int64
	for _, trk := range tracks {
		if len(trk.Events()) == 0 {
			t.Fatalf("rank %d track is empty", trk.PE())
		}
		for _, ev := range trk.Events() {
			msgBytes += ev.Args.MsgBytes
		}
	}
	if msgBytes != traced.MPI.MsgBytes {
		t.Fatalf("span-attributed msg bytes %d != aggregate %d", msgBytes, traced.MPI.MsgBytes)
	}
	snap := metrics.Snapshot()
	if snap.Histograms[obs.MetricMsgBytes].Count == 0 {
		t.Fatal("msg_bytes histogram recorded nothing")
	}
	if traced.Mem == nil {
		t.Fatal("traced run result is missing the memory snapshot")
	}
}
