package svsim_test

import (
	"fmt"
	"reflect"
	"testing"

	"svsim/internal/batch"
	"svsim/internal/compile"
	"svsim/internal/core"
	"svsim/internal/ham"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
	"svsim/internal/statevec"
	"svsim/internal/vqa"
)

// counterCell is one pinned run: a workload on one backend configuration.
type counterCell struct {
	workload, backend string
	pes               int
	coalesced         bool
	sched             sched.Policy
	// untiled runs every gate as its own sweep (a tile as large as the
	// window); the other cells tile wherever a window holds several tiles.
	untiled, fuse bool
}

func (c counterCell) String() string {
	s := fmt.Sprintf("%s %s×%d", c.workload, c.backend, c.pes)
	if c.sched != "" {
		s += " " + string(c.sched)
	}
	if c.coalesced {
		s += " coalesced"
	}
	if c.untiled {
		s += " untiled"
	}
	if c.fuse {
		s += " fuse"
	}
	return s
}

// runCounters are the deterministic counters of one run: the kernel
// traffic (core.Result.SV), the compile pipeline's diagonal runs, fusion
// and remaps, the communication the paper compares (core.Result.Comm),
// and the plan-cache outcome. No field depends on the clock or on how
// goroutines are scheduled.
type runCounters struct {
	Qubits, Gates                          int
	KernelGates, AmpsTouched, BytesTouched int64
	Sweeps                                 int64
	DiagRuns, MergedGates, FusedGates      int
	Remaps                                 int
	CommLocalBytes, CommRemoteBytes        int64
	CommRemoteMsgs, Barriers               int64
	// PlanCacheHit is a suite cell's hit in the plan cache the whole
	// suite shares (a tiled or threaded cell rebinds a plan an earlier
	// cell compiled); PlanCacheHits/Misses count the sweep's own cache.
	PlanCacheHit                   bool
	PlanCacheHits, PlanCacheMisses int64
}

// sweepWorkload is a cell that is not a suite circuit: a batched VQE
// energy sweep over sweepPoints parameter points of the H2 UCCSD ansatz,
// four workers sharing one plan cache. Every point after the first
// rebinds the cached plan. rqcFleetWorkload is the other: RQC(16, 8), the
// smallest random circuit whose two-rank windows hold several tiles.
const (
	sweepWorkload    = "vqe_h2_sweep64"
	sweepPoints      = 64
	rqcFleetWorkload = "rqc16x8"
)

// pinnedCounters is the table TestCountersPinned holds the simulator to,
// in run order (the suite cells share one plan cache, so the order
// decides which cells hit it). A counter that moves is either a bug or a
// change that must say why in the same commit that edits its row.
var pinnedCounters = []struct {
	cell counterCell
	want runCounters
}{
	{counterCell{"qft_n15", "single", 1, false, sched.Naive, false, false}, runCounters{
		Qubits: 15, Gates: 540, KernelGates: 540, AmpsTouched: 9093120, BytesTouched: 19136512, Sweeps: 58,
		DiagRuns: 91, MergedGates: 182}},
	{counterCell{"qft_n15", "single", 1, false, sched.Naive, false, true}, runCounters{
		Qubits: 15, Gates: 540, KernelGates: 540, AmpsTouched: 999424, BytesTouched: 1310720, Sweeps: 3,
		DiagRuns: 15, MergedGates: 524, FusedGates: 540}},
	{counterCell{"qft_n15", "single", 1, false, sched.Naive, true, false}, runCounters{
		Qubits: 15, Gates: 540, KernelGates: 540, AmpsTouched: 9093120, BytesTouched: 145489920, Sweeps: 449,
		DiagRuns: 91, MergedGates: 182, PlanCacheHit: true}},
	{counterCell{"qft_n15", "single", 1, false, sched.Naive, true, true}, runCounters{
		Qubits: 15, Gates: 540, KernelGates: 540, AmpsTouched: 999424, BytesTouched: 15990784, Sweeps: 31,
		DiagRuns: 15, MergedGates: 524, FusedGates: 540, PlanCacheHit: true}},
	{counterCell{"qft_n15", "threaded", 4, false, sched.Naive, false, false}, runCounters{
		Qubits: 15, Gates: 540, KernelGates: 540, AmpsTouched: 9093120, BytesTouched: 19136512, Sweeps: 58,
		DiagRuns: 91, MergedGates: 182, PlanCacheHit: true}},
	{counterCell{"qft_n15", "threaded", 4, false, sched.Naive, true, false}, runCounters{
		Qubits: 15, Gates: 540, KernelGates: 540, AmpsTouched: 9093120, BytesTouched: 145489920, Sweeps: 449,
		DiagRuns: 91, MergedGates: 182, PlanCacheHit: true}},
	{counterCell{"qft_n15", "scale-up", 4, false, sched.Naive, false, false}, runCounters{
		Qubits: 15, Gates: 540, KernelGates: 2160, AmpsTouched: 9093120, BytesTouched: 145489920, Sweeps: 1572,
		DiagRuns: 91, MergedGates: 182,
		CommLocalBytes: 11272192, CommRemoteBytes: 19136512, CommRemoteMsgs: 2392064, Barriers: 1796}},
	{counterCell{"qft_n15", "scale-out", 8, true, sched.Naive, false, false}, runCounters{
		Qubits: 15, Gates: 540, KernelGates: 4320, AmpsTouched: 9093120, BytesTouched: 145489920, Sweeps: 2944,
		DiagRuns: 91, MergedGates: 182,
		CommRemoteBytes: 42467328, CommRemoteMsgs: 1296, Barriers: 4240}},
	{counterCell{"qft_n15", "scale-out", 8, false, sched.Lazy, false, false}, runCounters{
		Qubits: 15, Gates: 540, KernelGates: 4320, AmpsTouched: 9150464, BytesTouched: 146407424, Sweeps: 3592,
		DiagRuns: 91, MergedGates: 182, Remaps: 2,
		CommRemoteBytes: 458752, CommRemoteMsgs: 56, Barriers: 56}},
	{counterCell{"qft_n15", "scale-out", 8, false, sched.Lazy, false, true}, runCounters{
		Qubits: 15, Gates: 540, KernelGates: 4320, AmpsTouched: 1114112, BytesTouched: 17825792, Sweeps: 248,
		DiagRuns: 15, MergedGates: 524, FusedGates: 540, Remaps: 2,
		CommRemoteBytes: 917504, CommRemoteMsgs: 112, Barriers: 112}},
	{counterCell{"bv_n14", "scale-out", 4, true, sched.Naive, false, false}, runCounters{
		Qubits: 14, Gates: 41, KernelGates: 164, AmpsTouched: 565248, BytesTouched: 9043968, Sweeps: 96,
		CommRemoteBytes: 4456448, CommRemoteMsgs: 136, Barriers: 232}},
	{counterCell{"bv_n14", "scale-out", 4, false, sched.Lazy, false, false}, runCounters{
		Qubits: 14, Gates: 41, KernelGates: 164, AmpsTouched: 614400, BytesTouched: 9830400, Sweeps: 164,
		Remaps: 2, CommRemoteBytes: 393216, CommRemoteMsgs: 24, Barriers: 24}},
	{counterCell{"bv_n14", "scale-out", 4, false, sched.Lazy, false, true}, runCounters{
		Qubits: 14, Gates: 41, KernelGates: 160, AmpsTouched: 598016, BytesTouched: 9568256, Sweeps: 160,
		FusedGates: 40, Remaps: 2, CommRemoteBytes: 393216, CommRemoteMsgs: 24, Barriers: 24}},
	{counterCell{"ghz_state", "single", 1, false, sched.Naive, false, false}, runCounters{
		Qubits: 23, Gates: 23, KernelGates: 23, AmpsTouched: 100663296, BytesTouched: 738197504, Sweeps: 10}},
	{counterCell{rqcFleetWorkload, "scale-out", 2, false, sched.Naive, false, false}, runCounters{
		Qubits: 16, Gates: 204, KernelGates: 408, AmpsTouched: 7962624, BytesTouched: 22020096, Sweeps: 32,
		DiagRuns: 18, MergedGates: 93,
		CommLocalBytes: 5242880, CommRemoteBytes: 5242880, CommRemoteMsgs: 655360, Barriers: 42}},
	{counterCell{rqcFleetWorkload, "scale-out", 2, false, sched.Lazy, false, false}, runCounters{
		Qubits: 16, Gates: 204, KernelGates: 408, AmpsTouched: 8290304, BytesTouched: 23068672, Sweeps: 34,
		DiagRuns: 18, MergedGates: 93, Remaps: 5,
		CommRemoteBytes: 2621440, CommRemoteMsgs: 10, Barriers: 10}},
	{counterCell{sweepWorkload, "batch-single", 1, false, "", false, true}, runCounters{
		Qubits: 4, Gates: 242, PlanCacheHits: 63, PlanCacheMisses: 1}},
}

// TestCountersPinned runs every pinned cell and requires each of its
// counters to equal the table exactly: the traffic the paper argues from
// is deterministic, so there is no tolerance.
func TestCountersPinned(t *testing.T) {
	const cells = 17
	if len(pinnedCounters) != cells {
		t.Errorf("pinned cells = %d, want %d: a cell was added or dropped", len(pinnedCounters), cells)
	}
	seen := make(map[counterCell]bool, len(pinnedCounters))
	plans := compile.NewCache(compile.DefaultCacheSize)
	for _, row := range pinnedCounters {
		if seen[row.cell] {
			t.Errorf("%v: pinned twice", row.cell)
			continue
		}
		seen[row.cell] = true
		var got runCounters
		var err error
		if row.cell.workload == sweepWorkload {
			got, err = sweepCounters()
		} else {
			got, err = cellCounters(row.cell, plans)
		}
		if err != nil {
			t.Errorf("%v: %v", row.cell, err)
			continue
		}
		g, w := reflect.ValueOf(got), reflect.ValueOf(row.want)
		for i := 0; i < g.NumField(); i++ {
			if g.Field(i).Interface() != w.Field(i).Interface() {
				t.Errorf("%v: %s = %v, want %v", row.cell, g.Type().Field(i).Name, g.Field(i), w.Field(i))
			}
		}
	}
}

// cellCounters runs one qasmbench workload under the cell's configuration.
func cellCounters(cell counterCell, plans *compile.Cache) (runCounters, error) {
	c := qasmbench.RQC(16, 8, 1)
	if cell.workload != rqcFleetWorkload {
		e, err := qasmbench.ByName(cell.workload)
		if err != nil {
			return runCounters{}, err
		}
		c = e.Build()
	}
	cfg := core.Config{
		Seed: 1, Style: statevec.Vectorized, PEs: cell.pes,
		Coalesced: cell.coalesced, Fuse: cell.fuse, Sched: cell.sched,
		Plans: plans,
	}
	if cell.untiled {
		cfg.TileBits = c.NumQubits
	}
	backend, err := core.NewBackend(cell.backend, cfg)
	if err != nil {
		return runCounters{}, err
	}
	res, err := backend.Run(c)
	if err != nil {
		return runCounters{}, err
	}
	got := runCounters{
		Qubits: c.NumQubits, Gates: c.NumGates(),
		KernelGates: res.SV.Gates, AmpsTouched: res.SV.AmpsTouched, BytesTouched: res.SV.BytesTouched,
		Sweeps:   res.SV.Sweeps,
		DiagRuns: res.Compile.DiagRuns, MergedGates: res.Compile.Merged, Remaps: res.Compile.Remaps,
		CommLocalBytes: res.Comm.LocalBytes, CommRemoteBytes: res.Comm.RemoteBytes,
		CommRemoteMsgs: res.Comm.RemoteMessages(), Barriers: res.Comm.Barriers,
		PlanCacheHit: res.Compile.CacheHit,
	}
	if cell.fuse {
		got.FusedGates = res.Compile.Fusion.OutputGates
	}
	return got, nil
}

// sweepCounters runs the sweepWorkload cell.
func sweepCounters() (runCounters, error) {
	params := make([][]float64, sweepPoints)
	for i := range params {
		p := make([]float64, vqa.H2NumParams())
		for j := range p {
			// Deterministic, generic (non-degenerate) angles.
			p[j] = 0.15 + 0.045*float64(i) + 0.3*float64(j)
		}
		params[i] = p
	}
	runner := batch.New(4, core.Config{Seed: 1, Style: statevec.Vectorized, Fuse: true})
	if _, err := runner.EnergySweep(ham.H2(), vqa.H2Ansatz, params); err != nil {
		return runCounters{}, err
	}
	c := vqa.H2Ansatz(params[0])
	cs := runner.PlanCache().Stats()
	return runCounters{Qubits: c.NumQubits, Gates: c.NumGates(), PlanCacheHits: cs.Hits, PlanCacheMisses: cs.Misses}, nil
}
