package core

import (
	"math/rand"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/gate"
	"svsim/internal/obs"
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

// TestLazyTracedRunMatchesUntraced guards the single exchange routine:
// a tracer only records spans, so the state, the communication counters
// and the two-level byte split of a traced run must equal the untraced
// run's exactly — flat and under a topology, at every fleet size — and
// every PE's timeline must show exactly the phases the run executed (one
// unpack span each): one fleet-scope phase per remap on a flat run, the
// counted node/rail-scope phases under a topology.
func TestLazyTracedRunMatchesUntraced(t *testing.T) {
	c := measuredCircuit(41, 8, 120)
	for _, ppn := range []int{0, 2} {
		for _, pes := range []int{2, 4, 8} {
			cfg := Config{Seed: 9, PEs: pes, Sched: sched.Lazy, Topology: sched.Topology{PEsPerNode: ppn}}
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
				t.Fatalf("ppn %d PEs=%d: traced run deviates by %g (cbits %b vs %b)", ppn, pes, d, traced.Cbits, plain.Cbits)
			}
			if traced.Comm != plain.Comm {
				t.Fatalf("ppn %d PEs=%d: comm counters differ\ntraced %+v\nplain  %+v", ppn, pes, traced.Comm, plain.Comm)
			}
			if traced.IntraBytes != plain.IntraBytes || traced.InterBytes != plain.InterBytes ||
				traced.ExchangePhases != plain.ExchangePhases {
				t.Fatalf("ppn %d PEs=%d: two-level split differs: intra %d/%d inter %d/%d phases %d/%d", ppn, pes,
					traced.IntraBytes, plain.IntraBytes, traced.InterBytes, plain.InterBytes,
					traced.ExchangePhases, plain.ExchangePhases)
			}
			if plain.Comm.RemoteBytes == 0 || (ppn > 0) != (plain.ExchangePhases > 0) {
				t.Fatalf("ppn %d PEs=%d: run exercised no exchange (remote bytes %d, phases %d)",
					ppn, pes, plain.Comm.RemoteBytes, plain.ExchangePhases)
			}
			wantPhases := plain.ExchangePhases
			if ppn == 0 {
				wantPhases = int64(plain.Compile.Remaps)
			}
			for _, trk := range cfg.Trace.Tracks() {
				var unpacks int64
				for _, ev := range trk.Events() {
					if ev.Args.Phase == obs.PhaseUnpack {
						unpacks++
					}
				}
				if unpacks != wantPhases {
					t.Fatalf("ppn %d PEs=%d PE %d: timeline shows %d exchange phases, run executed %d",
						ppn, pes, trk.PE(), unpacks, wantPhases)
				}
			}
		}
	}
}
