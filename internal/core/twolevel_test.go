package core

import (
	"math/rand"
	"os"
	"strconv"
	"testing"

	"svsim/internal/compile"
	"svsim/internal/fault"
	"svsim/internal/obs"
	"svsim/internal/pgas"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
)

// topoCases honors the CI topology matrix: when SVSIM_TOPO_PES and
// SVSIM_TOPO_PPN are both set, only that geometry runs, so each matrix
// cell exercises one node shape. Otherwise the full local sweep runs.
// The CI workflow sweeps 8x8 (one node), 8x4 (two nodes), and 16x4
// (four nodes) so scale-out equivalence holds on every node shape, plus
// 8x0: the flat fleet, where the comparison is two runs of the one
// fleet-scope phase and the job's value is the race detector over it
// (the overlap, traced, interop and fault tests carry their own flat
// rows in every cell).
func topoCases() []struct{ pes, ppn int } {
	if pes, err := strconv.Atoi(os.Getenv("SVSIM_TOPO_PES")); err == nil {
		if ppn, err := strconv.Atoi(os.Getenv("SVSIM_TOPO_PPN")); err == nil {
			return []struct{ pes, ppn int }{{pes, ppn}}
		}
	}
	return []struct{ pes, ppn int }{
		{8, 8},  // one node: everything intra
		{8, 4},  // two nodes
		{8, 2},  // four nodes
		{8, 1},  // every PE its own node: everything inter
		{16, 4}, // four nodes of four
	}
}

// TestTwoLevelMatchesFlatBitIdentical is the correctness core of the
// hierarchical remap: under every node topology, the two-level run must
// produce the flat run's state bit-for-bit (MaxAbsDiff exactly 0), with
// identical classical bits, on circuits with mid-circuit measurement
// and feedback included. The two phases realize disjoint transpositions
// as pure data movement, so no floating-point operation can differ.
func TestTwoLevelMatchesFlatBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 3; trial++ {
		c := randomCircuit(rng, 8, 100)
		c.Measure(7, 0)
		c.Measure(0, 1)
		for _, tc := range topoCases() {
			flat, err := NewScaleOut(Config{Seed: 11, PEs: tc.pes, Sched: sched.Lazy}).Run(c)
			if err != nil {
				t.Fatal(err)
			}
			topo, err := NewScaleOut(Config{
				Seed: 11, PEs: tc.pes, Sched: sched.Lazy,
				Topology: sched.Topology{PEsPerNode: tc.ppn},
			}).Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if d := topo.State.MaxAbsDiff(flat.State); d != 0 {
				t.Fatalf("trial %d %dPE/ppn%d: two-level deviates by %g (want bit-identical)",
					trial, tc.pes, tc.ppn, d)
			}
			if topo.Cbits != flat.Cbits {
				t.Fatalf("trial %d %dPE/ppn%d: cbits %b vs %b",
					trial, tc.pes, tc.ppn, topo.Cbits, flat.Cbits)
			}
			if flat.IntraBytes != 0 || flat.InterBytes != 0 || flat.ExchangePhases != 0 {
				t.Fatalf("flat run reported topology counters: intra=%d inter=%d phases=%d",
					flat.IntraBytes, flat.InterBytes, flat.ExchangePhases)
			}
		}
	}
}

// flatInterBytes prices the flat exchange of the same plan on the same
// topology: what the node-crossing volume would have been without the
// two-level split (folded remaps included, since the flat run pays them).
func flatInterBytes(t *testing.T, name string, pes, ppn int) int64 {
	t.Helper()
	e, err := qasmbench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := compile.Compile(e.Build(), compile.Config{Sched: sched.Lazy, PEs: pes})
	if err != nil {
		t.Fatal(err)
	}
	topo := sched.Topology{PEsPerNode: ppn}
	var inter int64
	for i := range cp.Plan.Steps {
		if cp.Plan.Steps[i].Kind != sched.StepRemap {
			continue
		}
		for _, ph := range cp.Phases[i] { // one fleet-scope phase
			_, ib, _ := ph.NodeSplit(pes, topo)
			inter += ib
		}
	}
	return inter
}

// TestTwoLevelQFT15InterByteReduction is the acceptance gate of the
// hierarchical remap: on qft_n15 at 8 PEs over 2 nodes (4 PEs each),
// node-crossing bytes must drop at least 2x against the flat exchange,
// with the split surfaced consistently through Result counters and the
// obs metrics registry, and the state bit-identical to the flat run.
func TestTwoLevelQFT15InterByteReduction(t *testing.T) {
	e, err := qasmbench.ByName("qft_n15")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build()

	flat, err := NewScaleOut(Config{PEs: 8, Sched: sched.Lazy}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	topo, err := NewScaleOut(Config{
		PEs: 8, Sched: sched.Lazy, Metrics: m,
		Topology: sched.Topology{PEsPerNode: 4},
	}).Run(c)
	if err != nil {
		t.Fatal(err)
	}

	if d := topo.State.MaxAbsDiff(flat.State); d != 0 {
		t.Fatalf("two-level deviates by %g (want bit-identical)", d)
	}
	if topo.InterBytes == 0 || topo.IntraBytes == 0 {
		t.Fatalf("missing split: intra=%d inter=%d", topo.IntraBytes, topo.InterBytes)
	}
	// The split must account for exactly the run's remote traffic.
	if topo.IntraBytes+topo.InterBytes != topo.Comm.RemoteBytes {
		t.Fatalf("intra %d + inter %d != remote %d",
			topo.IntraBytes, topo.InterBytes, topo.Comm.RemoteBytes)
	}
	snap := m.Snapshot()
	if got := snap.Counters[obs.MetricRemoteBytesIntra]; got != topo.IntraBytes {
		t.Fatalf("intra metric %d != result %d", got, topo.IntraBytes)
	}
	if got := snap.Counters[obs.MetricRemoteBytesInter]; got != topo.InterBytes {
		t.Fatalf("inter metric %d != result %d", got, topo.InterBytes)
	}
	if got := snap.Counters[obs.MetricExchangePhases]; got != topo.ExchangePhases || got == 0 {
		t.Fatalf("phase metric %d != result %d (or zero)", got, topo.ExchangePhases)
	}
	flatInter := flatInterBytes(t, "qft_n15", 8, 4)
	if flatInter < 2*topo.InterBytes {
		t.Fatalf("inter-node bytes %d not >=2x below flat %d (ratio %.2f)",
			topo.InterBytes, flatInter, float64(flatInter)/float64(topo.InterBytes))
	}
	t.Logf("qft_n15@8PE/2nodes: flat inter=%d two-level intra=%d inter=%d (%.1fx inter reduction, %d phases)",
		flatInter, topo.IntraBytes, topo.InterBytes,
		float64(flatInter)/float64(topo.InterBytes), topo.ExchangePhases)
}

// TestTwoLevelFoldsInitialRemap: the flat run pays the schedule's
// initial remap even though the state is |0...0>; the topology run
// elides it, so total remote bytes must shrink by at least that
// exchange's volume while the state stays bit-identical (covered above).
func TestTwoLevelFoldsInitialRemap(t *testing.T) {
	e, err := qasmbench.ByName("qft_n15")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build()
	flat, err := NewScaleOut(Config{PEs: 8, Sched: sched.Lazy}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := NewScaleOut(Config{
		PEs: 8, Sched: sched.Lazy, Topology: sched.Topology{PEsPerNode: 4},
	}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Compile.Remaps != flat.Compile.Remaps {
		t.Fatalf("plans differ: %d vs %d remaps", topo.Compile.Remaps, flat.Compile.Remaps)
	}
	// One of qft_n15's two remaps precedes every gate and folds away;
	// the survivor moves each amplitude twice (once per phase), so the
	// comparison is per-remap, not global: the topology run must have
	// executed strictly fewer exchanges' worth of puts.
	if topo.Comm.RemotePuts >= flat.Comm.RemotePuts*2 {
		t.Fatalf("folding had no effect: %d puts vs flat %d", topo.Comm.RemotePuts, flat.Comm.RemotePuts)
	}
	if d := topo.State.MaxAbsDiff(flat.State); d != 0 {
		t.Fatalf("deviates by %g", d)
	}
}

// TestTwoLevelOverlapPackWire asserts the double-buffered pipeline
// structurally: in the span timeline of an exchange phase — the one
// fleet-scope phase of a flat remap as much as the node and rail phases
// under a topology — the pack span of block k+1 must start inside the
// wire span of block k: the put of block k is joined only after block
// k+1 is packed, so this holds deterministically, not probabilistically.
func TestTwoLevelOverlapPackWire(t *testing.T) {
	e, err := qasmbench.ByName("qft_n15")
	if err != nil {
		t.Fatal(err)
	}
	for _, ppn := range []int{0, 4} {
		tr := obs.NewTracer()
		res, err := NewScaleOut(Config{
			PEs: 8, Sched: sched.Lazy, Trace: tr,
			Topology: sched.Topology{PEsPerNode: ppn},
		}).Run(e.Build())
		if err != nil {
			t.Fatal(err)
		}
		if (ppn > 0) != (res.ExchangePhases > 0) {
			t.Fatalf("ppn %d: %d node/rail-scope phases executed", ppn, res.ExchangePhases)
		}
		for _, trk := range tr.Tracks() {
			overlaps := 0
			var lastWire *obs.SpanEvent
			for i := range trk.Events() {
				ev := &trk.Events()[i]
				switch ev.Args.Phase {
				case obs.PhaseWire, obs.PhaseWireIntra, obs.PhaseWireInter:
					if (ev.Args.Phase == obs.PhaseWire) != (ppn == 0) {
						t.Fatalf("ppn %d PE %d: wire span labeled %q", ppn, trk.PE(), ev.Args.Phase)
					}
					lastWire = ev
				case obs.PhasePack, obs.PhasePackIntra, obs.PhasePackInter:
					if lastWire != nil && ev.TS >= lastWire.TS && ev.TS <= lastWire.TS+lastWire.Dur {
						overlaps++
					}
				}
			}
			if overlaps == 0 {
				t.Fatalf("ppn %d PE %d: no pack span starts inside a wire span (pipeline not overlapped)", ppn, trk.PE())
			}
		}
	}
}

// TestTwoLevelCheckpointInterop: topology changes neither the plan
// fingerprint nor any step-boundary state, so checkpoints written by a
// flat run restore under a topology and vice versa, finishing
// bit-identical to an uninterrupted run.
func TestTwoLevelCheckpointInterop(t *testing.T) {
	c := measuredCircuit(77, 6, 60)
	topo := sched.Topology{PEsPerNode: 2}
	ref, err := NewScaleOut(Config{Seed: 5, PEs: 4, Sched: sched.Lazy}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []struct {
		name        string
		write, read sched.Topology
	}{
		{"flat-to-topo", sched.Topology{}, topo},
		{"topo-to-flat", topo, sched.Topology{}},
	} {
		t.Run(dir.name, func(t *testing.T) {
			d := ckptTestDir(t)
			mid, err := NewScaleOut(Config{
				Seed: 5, PEs: 4, Sched: sched.Lazy, Topology: dir.write,
				CheckpointEvery: 15, CheckpointDir: d,
			}).Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if mid.Ckpt.Count == 0 {
				t.Fatal("no checkpoints written")
			}
			got, err := NewScaleOut(Config{
				Seed: 5, PEs: 4, Sched: sched.Lazy, Topology: dir.read,
				Resume: d,
			}).Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if diff := got.State.MaxAbsDiff(ref.State); diff != 0 {
				t.Fatalf("resumed run deviates by %g (want bit-identical)", diff)
			}
			if got.Cbits != ref.Cbits {
				t.Fatalf("cbits %b vs %b", got.Cbits, ref.Cbits)
			}
		})
	}
}

// entryProbe is the PGAS transport recording, per exchange phase, how
// many barriers rank had passed on entering it: the phase's entry
// barrier is its next one, the mid barrier the one after.
type entryProbe struct {
	Transport
	g       *Grid
	rank    int
	entries *[]int64
}

func (p entryProbe) Exchange(pe *pgas.PE, r *Rank, ph *sched.Phase, tr StepTrace) bool {
	if pe.Rank == p.rank {
		*p.entries = append(*p.entries, p.g.Comm.StatsOf(p.rank).Barriers)
	}
	return p.Transport.Exchange(pe, r, ph, tr)
}

// TestTwoLevelFaultKillRecovers: a PE killed mid-run — including inside
// an exchange phase, whose entry and mid barriers (fleet barriers on a
// flat run, group barriers under a topology) are fault-injection points
// — aborts the fleet without hanging any barrier domain, restarts from
// the last checkpoint, and finishes bit-identical to the clean run.
// Every row is killed at a fixed barrier and at the entry and the mid
// barrier of its last exchange phase.
func TestTwoLevelFaultKillRecovers(t *testing.T) {
	seed := faultSeed(t)
	c := measuredCircuit(78, 8, 60)
	for _, tc := range []struct{ pes, ppn int }{{8, 0}, {8, 8}, {8, 4}, {16, 4}} {
		base := Config{Seed: 9, PEs: tc.pes, Sched: sched.Lazy,
			Topology: sched.Topology{PEsPerNode: tc.ppn}}
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
		if _, err := run("scale-out", ckptCfg(), c, func(g *Grid) Transport {
			return entryProbe{oneSidedTransport(g), g, 1, &entries}
		}); err != nil {
			t.Fatal(err)
		}
		if len(entries) == 0 {
			t.Fatalf("%dPE/ppn%d: the run executed no exchange phase", tc.pes, tc.ppn)
		}
		entry := entries[len(entries)-1] + 1
		for _, after := range []int64{25, entry, entry + 1} {
			in := fault.NewInjector(seed)
			in.KillAt(1, fault.Barrier, after)
			cfg := ckptCfg()
			cfg.Fault = in
			got, err := NewScaleOut(cfg).Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if got.Recoveries != 1 {
				t.Fatalf("%dPE/ppn%d kill at barrier %d: want 1 recovery, got %d", tc.pes, tc.ppn, after, got.Recoveries)
			}
			if d := got.State.MaxAbsDiff(ref.State); d != 0 {
				t.Fatalf("%dPE/ppn%d kill at barrier %d: recovered run deviates by %g", tc.pes, tc.ppn, after, d)
			}
			if got.Cbits != ref.Cbits {
				t.Fatalf("%dPE/ppn%d kill at barrier %d: cbits %b vs %b", tc.pes, tc.ppn, after, got.Cbits, ref.Cbits)
			}
		}
	}
}
