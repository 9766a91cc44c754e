package core

import (
	"math/rand"
	"os"
	"strconv"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/fault"
	"svsim/internal/gate"
	"svsim/internal/obs"
	"svsim/internal/pgas"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
)

func TestLazySchedMatchesNaiveOnRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 4; trial++ {
		c := randomCircuit(rng, 8, 120)
		ref, err := NewSingleDevice(Config{Seed: 3}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, pes := range []int{2, 4, 8} {
			got, err := NewScaleOut(Config{Seed: 3, PEs: pes, Sched: sched.Lazy}).Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if d := got.State.MaxAbsDiff(ref.State); d != 0 {
				t.Fatalf("trial %d PEs=%d: lazy deviates by %g", trial, pes, d)
			}
		}
	}
}

func TestLazySchedMeasurementAndFeedback(t *testing.T) {
	// Measurement of remapped qubits plus classically conditioned gates:
	// outcomes and states must match the naive schedule seed-for-seed.
	c := circuit.New("fb", 8)
	c.H(7).RX(0.4, 7).CX(7, 0)
	c.Measure(7, 0)
	c.AppendCond(gate.NewX(1), circuit.Condition{Offset: 0, Width: 1, Value: 1})
	c.Reset(6)
	c.Measure(1, 1)
	for seed := int64(0); seed < 10; seed++ {
		ref, err := NewScaleOut(Config{Seed: seed, PEs: 4}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewScaleOut(Config{Seed: seed, PEs: 4, Sched: sched.Lazy}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cbits != ref.Cbits {
			t.Fatalf("seed %d: cbits %b vs %b", seed, got.Cbits, ref.Cbits)
		}
		if d := got.State.MaxAbsDiff(ref.State); d > 1e-10 {
			t.Fatalf("seed %d: state deviates by %g", seed, d)
		}
	}
}

func TestLazySchedAbsorbsSwaps(t *testing.T) {
	// Unconditioned SWAPs become zero-cost relabelings; the gathered state
	// must still be reported in logical order.
	c := circuit.New("swaps", 8)
	c.H(0).T(1).CX(0, 1)
	c.Swap(0, 7).Swap(1, 6).Swap(0, 1)
	c.RZ(0.3, 7)
	ref, err := NewSingleDevice(Config{}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewScaleOut(Config{PEs: 4, Sched: sched.Lazy}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.State.MaxAbsDiff(ref.State); d > 1e-12 {
		t.Fatalf("swap absorption wrong by %g", d)
	}
	if got.Comm.RemoteBytes != 0 {
		t.Fatalf("swap-only remapping moved %d remote bytes", got.Comm.RemoteBytes)
	}
}

func TestLazySchedFewerBarriers(t *testing.T) {
	// Gates inside a block are pure-local and need no synchronization, so
	// the lazy schedule must issue far fewer barriers than the per-gate
	// barriers of the naive schedule.
	c := qasmbench.QFT(10)
	naive, err := NewScaleOut(Config{PEs: 4, Coalesced: true}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := NewScaleOut(Config{PEs: 4, Sched: sched.Lazy}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if lazy.Comm.Barriers*4 > naive.Comm.Barriers {
		t.Fatalf("lazy barriers %d not well below naive %d", lazy.Comm.Barriers, naive.Comm.Barriers)
	}
	if d := lazy.State.MaxAbsDiff(naive.State); d != 0 {
		t.Fatalf("schedules disagree by %g", d)
	}
}

// TestLazyQFT15RemoteByteReduction is the acceptance gate for the
// communication-avoiding scheduler: on qft_n15 at 8 PEs, lazy scheduling
// must cut one-sided remote bytes at least 2x against the naive schedule,
// verified through the obs metrics registry, with matching states.
func TestLazyQFT15RemoteByteReduction(t *testing.T) {
	e, err := qasmbench.ByName("qft_n15")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build()

	naiveM := obs.NewMetrics()
	naive, err := NewScaleOut(Config{PEs: 8, Coalesced: true, Metrics: naiveM}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	lazyM := obs.NewMetrics()
	lazy, err := NewScaleOut(Config{PEs: 8, Sched: sched.Lazy, Metrics: lazyM}).Run(c)
	if err != nil {
		t.Fatal(err)
	}

	naiveRemote := naiveM.Snapshot().Counters[obs.MetricRemoteBytes]
	lazySnap := lazyM.Snapshot()
	lazyRemote := lazySnap.Counters[obs.MetricRemoteBytes]
	if naiveRemote == 0 || lazyRemote == 0 {
		t.Fatalf("metrics missing: naive=%d lazy=%d", naiveRemote, lazyRemote)
	}
	// The metrics counters must agree with the substrate's own accounting.
	if naiveRemote != naive.Comm.RemoteBytes || lazyRemote != lazy.Comm.RemoteBytes {
		t.Fatalf("metrics disagree with comm stats: %d/%d vs %d/%d",
			naiveRemote, naive.Comm.RemoteBytes, lazyRemote, lazy.Comm.RemoteBytes)
	}
	if naiveRemote < 2*lazyRemote {
		t.Fatalf("lazy remote bytes %d not >=2x below naive %d (ratio %.2f)",
			lazyRemote, naiveRemote, float64(naiveRemote)/float64(lazyRemote))
	}
	if lazySnap.Counters[obs.MetricRemapCount] == 0 {
		t.Fatal("remap counter not recorded")
	}
	if h, ok := lazySnap.Histograms[obs.MetricRemapBytes]; !ok || h.Count == 0 {
		t.Fatal("remap exchange-bytes histogram not recorded")
	}
	if d := lazy.State.MaxAbsDiff(naive.State); d != 0 {
		t.Fatalf("lazy and naive states deviate by %g", d)
	}
	t.Logf("qft_n15@8PE remote bytes: naive=%d lazy=%d (%.1fx reduction, %d remaps)",
		naiveRemote, lazyRemote, float64(naiveRemote)/float64(lazyRemote),
		lazySnap.Counters[obs.MetricRemapCount])
}

func TestLazySchedSinglePEFallsBackToNaive(t *testing.T) {
	c := circuit.New("p1", 5)
	c.H(4).CX(4, 0)
	got, err := NewScaleOut(Config{PEs: 1, Sched: sched.Lazy}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewSingleDevice(Config{}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.State.MaxAbsDiff(ref.State); d > 1e-12 {
		t.Fatalf("single-PE lazy wrong by %g", d)
	}
}

func TestLazySchedWithFusion(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	c := randomCircuit(rng, 7, 100)
	ref, err := NewSingleDevice(Config{}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewScaleOut(Config{PEs: 4, Fuse: true, Sched: sched.Lazy}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.State.MaxAbsDiff(ref.State); d > 1e-9 {
		t.Fatalf("lazy+fusion deviates by %g", d)
	}
}

// remapPEs honours the CI remap job: when SVSIM_REMAP_PES is set, only
// that fleet size runs, so each matrix cell exercises one (under -race);
// otherwise the test's own sizes run.
func remapPEs(sizes ...int) []int {
	if pes, err := strconv.Atoi(os.Getenv("SVSIM_REMAP_PES")); err == nil {
		return []int{pes}
	}
	return sizes
}

// TestLazyTracedRunMatchesUntraced guards the single exchange routine:
// a tracer only records spans, so the state and the communication
// counters of a traced run must equal the untraced run's exactly, at
// every fleet size, and every PE's timeline must show unpack spans in
// as many schedule blocks as the run executed remaps.
func TestLazyTracedRunMatchesUntraced(t *testing.T) {
	c := measuredCircuit(41, 8, 120)
	for _, pes := range remapPEs(2, 4, 8) {
		cfg := Config{Seed: 9, PEs: pes, Sched: sched.Lazy}
		plain, err := NewScaleOut(cfg).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Trace = obs.NewTracer()
		traced, err := NewScaleOut(cfg).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if d := traced.State.MaxAbsDiff(plain.State); d != 0 || traced.Cbits != plain.Cbits {
			t.Fatalf("PEs=%d: traced run deviates by %g (cbits %b vs %b)", pes, d, traced.Cbits, plain.Cbits)
		}
		if traced.Comm != plain.Comm {
			t.Fatalf("PEs=%d: comm counters differ\ntraced %+v\nplain  %+v", pes, traced.Comm, plain.Comm)
		}
		if plain.Comm.RemoteBytes == 0 {
			t.Fatalf("PEs=%d: run exercised no exchange", pes)
		}
		for _, trk := range cfg.Trace.Tracks() {
			blocks := map[int]bool{}
			for _, ev := range trk.Events() {
				if ev.Args.Phase == obs.PhaseUnpack {
					blocks[ev.Args.Block] = true
				}
			}
			if unpacks := len(blocks); unpacks != plain.Compile.Remaps {
				t.Fatalf("PEs=%d PE %d: timeline shows %d exchanges, run executed %d",
					pes, trk.PE(), unpacks, plain.Compile.Remaps)
			}
		}
	}
}

// TestRemapOverlapPackWire asserts the double-buffered pipeline
// structurally, on both transports: in the span timeline of a remap
// exchange, the pack span of chunk j+1 must start inside the wire span
// of chunk j: the wire of chunk j is joined only after chunk j+1 is
// packed, so this holds deterministically, not probabilistically.
func TestRemapOverlapPackWire(t *testing.T) {
	e, err := qasmbench.ByName("qft_n15")
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"scale-out", "mpi"} {
		for _, pes := range remapPEs(8) {
			tr := obs.NewTracer()
			b, err := NewBackend(backend, Config{PEs: pes, Sched: sched.Lazy, Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.Run(e.Build()); err != nil {
				t.Fatal(err)
			}
			for _, trk := range tr.Tracks() {
				overlaps := 0
				var lastWire *obs.SpanEvent
				for i := range trk.Events() {
					ev := &trk.Events()[i]
					switch ev.Args.Phase {
					case obs.PhaseWire:
						lastWire = ev
					case obs.PhasePack:
						if lastWire != nil && ev.TS >= lastWire.TS && ev.TS <= lastWire.TS+lastWire.Dur {
							overlaps++
						}
					}
				}
				if overlaps == 0 {
					t.Fatalf("%s PEs=%d PE %d: no pack span starts inside a wire span (pipeline not overlapped)", backend, pes, trk.PE())
				}
			}
		}
	}
}

// wireProbe is the PGAS transport recording, for every exchange step
// of rank, how many barriers rank had passed on entering it: the step's
// barrier is the next one.
type wireProbe struct {
	Transport
	g       *Grid
	rank    int
	entries *[]int64
}

func (p wireProbe) Wire(pe *pgas.PE, peer, step int, buf []float64) []float64 {
	if pe.Rank == p.rank {
		*p.entries = append(*p.entries, p.g.Comm.StatsOf(p.rank).Barriers)
	}
	return p.Transport.Wire(pe, peer, step, buf)
}

// TestRemapFaultKillRecovers: a PE killed mid-run — including inside a
// remap exchange, every one of whose step barriers is a fault-injection
// point — aborts the fleet without hanging any barrier, restarts from
// the last checkpoint, and finishes bit-identical to the clean run.
// Every fleet size is killed at a fixed barrier and at each barrier of
// its last exchange.
func TestRemapFaultKillRecovers(t *testing.T) {
	seed := faultSeed(t)
	c := measuredCircuit(78, 8, 60)
	for _, pes := range remapPEs(8, 16) {
		base := Config{Seed: 9, PEs: pes, Sched: sched.Lazy}
		ref, err := NewScaleOut(base).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		ckptCfg := func() Config {
			cfg := base
			cfg.CheckpointEvery = 5
			cfg.CheckpointDir = ckptTestDir(t)
			cfg.MaxRestarts = 2
			return cfg
		}
		var entries []int64
		var last *sched.Exchange
		if _, err := run("scale-out", ckptCfg(), c, nil, func(g *Grid) Transport {
			for si, st := range g.Compiled.Plan.Steps {
				if st.Kind == sched.StepRemap && si >= g.Start {
					last = g.Compiled.Exchanges[si]
				}
			}
			return wireProbe{oneSidedTransport(g), g, 1, &entries}
		}); err != nil {
			t.Fatal(err)
		}
		if last == nil || len(entries) < last.Steps() {
			t.Fatalf("%dPE: the run executed no exchange", pes)
		}
		kills := []int64{25}
		for _, before := range entries[len(entries)-last.Steps():] {
			kills = append(kills, before+1)
		}
		if len(kills) < 3 {
			t.Fatalf("%dPE: last exchange has %d barriers, want several", pes, len(kills)-1)
		}
		for _, after := range kills {
			in := fault.NewInjector(seed)
			in.Arm(fault.Fault{Kind: fault.Kill, Rank: 1, Op: fault.Barrier, After: after})
			cfg := ckptCfg()
			cfg.Fault = in
			got, err := NewScaleOut(cfg).Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if got.Recoveries != 1 {
				t.Fatalf("%dPE kill at barrier %d: want 1 recovery, got %d", pes, after, got.Recoveries)
			}
			if d := got.State.MaxAbsDiff(ref.State); d != 0 {
				t.Fatalf("%dPE kill at barrier %d: recovered run deviates by %g", pes, after, d)
			}
			if got.Cbits != ref.Cbits {
				t.Fatalf("%dPE kill at barrier %d: cbits %b vs %b", pes, after, got.Cbits, ref.Cbits)
			}
		}
	}
}
