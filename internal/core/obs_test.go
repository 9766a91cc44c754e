package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"svsim/internal/fault"
	"svsim/internal/obs"
	"svsim/internal/pgas"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
)

// TestScaleOutTracing is the acceptance check of the telemetry layer: a
// traced scale-out run must produce gate spans on every PE track with
// communication attribution, nonzero gate-latency histogram counts, a
// memory snapshot, and — crucially — the exact same simulation result as
// the untraced run.
func TestScaleOutTracing(t *testing.T) {
	e, err := qasmbench.ByName("bv_n14")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build()
	const pes = 8

	plain, err := NewScaleOut(Config{Seed: 7, PEs: pes, Coalesced: true}).Run(c)
	if err != nil {
		t.Fatal(err)
	}

	tracer := obs.NewTracer()
	metrics := obs.NewMetrics()
	traced, err := NewScaleOut(Config{
		Seed: 7, PEs: pes, Coalesced: true, Trace: tracer, Metrics: metrics,
	}).Run(c)
	if err != nil {
		t.Fatal(err)
	}

	if d := plain.State.MaxAbsDiff(traced.State); d != 0 {
		t.Fatalf("tracing changed the simulation result (maxAbsDiff=%g)", d)
	}
	if plain.Cbits != traced.Cbits {
		t.Fatalf("tracing changed cbits: %b vs %b", plain.Cbits, traced.Cbits)
	}
	if plain.Comm != traced.Comm {
		t.Fatalf("tracing changed comm stats:\n  plain  %v\n  traced %v", plain.Comm, traced.Comm)
	}

	// One track per PE, each with one span per executed gate.
	tracks := tracer.Tracks()
	if len(tracks) != pes {
		t.Fatalf("tracks = %d, want %d", len(tracks), pes)
	}
	gates := c.NumGates()
	var remoteBytes int64
	for _, trk := range tracks {
		evs := trk.Events()
		if len(evs) != gates {
			t.Fatalf("track %d has %d spans, want %d (one per gate)", trk.PE(), len(evs), gates)
		}
		last := int64(-1)
		for _, ev := range evs {
			if ev.TS < last {
				t.Fatalf("track %d: non-monotonic ts", trk.PE())
			}
			last = ev.TS
			remoteBytes += ev.Args.RemoteBytes
		}
	}
	if remoteBytes != traced.Comm.RemoteBytes {
		t.Fatalf("span-attributed remote bytes %d != aggregate %d", remoteBytes, traced.Comm.RemoteBytes)
	}

	// Gate latency histograms must have recorded every gate execution,
	// the barrier histogram must have seen waits, and the published pgas
	// traffic must be the substrate's own count.
	snap := metrics.Snapshot()
	var latCount int64
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, obs.MetricGateKernelNS+".") {
			latCount += h.Count
		}
	}
	if latCount != int64(gates*pes) {
		t.Fatalf("gate latency observations = %d, want gates*pes = %d", latCount, gates*pes)
	}
	if snap.Histograms[obs.MetricBarrierWaitNS].Count == 0 {
		t.Fatalf("histogram %q recorded nothing", obs.MetricBarrierWaitNS)
	}
	checkPublishedComm(t, snap, traced.Comm)
	if traced.Mem == nil {
		t.Fatal("traced run result is missing the memory snapshot")
	}
	if plain.Mem != nil {
		t.Fatal("untraced run must not pay for a memory snapshot")
	}

	// The serialized trace must be valid JSON with spans on all 8 tids.
	var buf bytes.Buffer
	if err := tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			TID int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	perTID := map[int]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			perTID[ev.TID]++
		}
	}
	for pe := 0; pe < pes; pe++ {
		if perTID[pe] == 0 {
			t.Fatalf("PE %d track has no spans in the serialized trace", pe)
		}
	}
}

// checkPublishedComm fails unless the registry's pgas traffic counters
// equal comm exactly.
func checkPublishedComm(t *testing.T, snap obs.Snapshot, comm pgas.Stats) {
	t.Helper()
	for _, c := range []struct {
		name string
		want int64
	}{
		{obs.MetricRemoteBytes, comm.RemoteBytes},
		{obs.MetricLocalBytes, comm.LocalBytes},
		{obs.MetricOpRetries, comm.Retries},
	} {
		got, ok := snap.Counters[c.name]
		if !ok || got != c.want {
			t.Errorf("published %s = %d (registered %v), want Result.Comm's %d", c.name, got, ok, c.want)
		}
	}
}

// TestPublishedTrafficEqualsComm: on every backend of the table, under
// both plans, the run publishes its one-sided traffic to the registry
// once, equal to Result.Comm — the per-PE count is the only count.
func TestPublishedTrafficEqualsComm(t *testing.T) {
	e, err := qasmbench.ByName("qft_n15")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build()
	type cell struct {
		backend   string
		pol       sched.Policy
		coalesced bool
	}
	var cells []cell
	for _, b := range BackendNames(nil) {
		for _, pol := range []sched.Policy{sched.Naive, sched.Lazy} {
			cells = append(cells, cell{b, pol, false})
		}
	}
	cells = append(cells, cell{"scale-out", sched.Naive, true})
	for _, cl := range cells {
		name := cl.backend + "/" + string(cl.pol)
		if cl.coalesced {
			name += "/coalesced"
		}
		t.Run(name, func(t *testing.T) {
			m := obs.NewMetrics()
			res, err := Run(cl.backend, Config{
				Seed: 5, PEs: 4, Sched: cl.pol, Coalesced: cl.coalesced, Metrics: m,
			}, c)
			if err != nil {
				t.Fatal(err)
			}
			checkPublishedComm(t, m.Snapshot(), res.Comm)
		})
	}
}

// TestPublishedOpRetries: one-sided ops re-issued after injected drops
// reach the registry as pgas_op_retries, equal to Result.Comm.Retries.
func TestPublishedOpRetries(t *testing.T) {
	in, err := fault.ParseSpec("drop:rank=0:op=put:after=5:count=2", faultSeed(t))
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	res, err := NewScaleOut(Config{
		Seed: 5, PEs: 4, Fault: in, Metrics: m,
		Timeouts: pgas.Timeouts{OpRetries: 4},
	}).Run(measuredCircuit(42, 6, 60))
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.Retries == 0 {
		t.Fatal("the drops caused no retry")
	}
	checkPublishedComm(t, m.Snapshot(), res.Comm)
}

// TestPublishedTrafficSumsAttempts: a run restarted from a checkpoint
// publishes every attempt's traffic, the killed one's included, so the
// registry holds more than the last attempt's Result.Comm and no less
// than a clean run moves.
func TestPublishedTrafficSumsAttempts(t *testing.T) {
	c := measuredCircuit(42, 6, 60)
	base := Config{PEs: 4, Seed: 7}
	clean, err := NewScaleOut(base).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(faultSeed(t))
	in.Arm(fault.Fault{Kind: fault.Kill, Rank: 1, Op: fault.Barrier, After: 30})
	cfg := base
	cfg.Fault = in
	cfg.CheckpointEvery = 5
	cfg.CheckpointDir = ckptTestDir(t)
	cfg.MaxRestarts = 2
	cfg.Metrics = obs.NewMetrics()
	res, err := NewScaleOut(cfg).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 {
		t.Fatalf("want 1 recovery, got %d", res.Recoveries)
	}
	got := cfg.Metrics.Snapshot().Counters[obs.MetricRemoteBytes]
	if got <= res.Comm.RemoteBytes || got < clean.Comm.RemoteBytes {
		t.Fatalf("published remote bytes %d: want > the last attempt's %d and >= a clean run's %d",
			got, res.Comm.RemoteBytes, clean.Comm.RemoteBytes)
	}
}

// TestSingleDeviceTracing covers the non-distributed observed loop.
func TestSingleDeviceTracing(t *testing.T) {
	e, err := qasmbench.ByName("cc_n12")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build()

	tracer := obs.NewTracer()
	metrics := obs.NewMetrics()
	plain, err := NewSingleDevice(Config{Seed: 3}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := NewSingleDevice(Config{Seed: 3, Trace: tracer, Metrics: metrics}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if d := plain.State.MaxAbsDiff(traced.State); d != 0 {
		t.Fatalf("tracing changed the result (maxAbsDiff=%g)", d)
	}
	tracks := tracer.Tracks()
	if len(tracks) != 1 {
		t.Fatalf("tracks = %d, want 1", len(tracks))
	}
	if got := len(tracks[0].Events()); got != c.NumGates() {
		t.Fatalf("spans = %d, want %d", got, c.NumGates())
	}
}

// BenchmarkObservedNaive: the paper's element-grained one-sided path
// (scale-out ×2, naive plan, QFT(16)) plain and with a tracer and a
// metrics registry attached; the two rows differ by the per-gate
// observation alone, no registry handle being touched per element op.
func BenchmarkObservedNaive(b *testing.B) {
	c := qasmbench.QFT(16)
	for _, observed := range []bool{false, true} {
		name := "plain"
		if observed {
			name = "observed"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := Config{PEs: 2}
				if observed {
					cfg.Trace, cfg.Metrics = obs.NewTracer(), obs.NewMetrics()
				}
				if _, err := NewScaleOut(cfg).Run(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
