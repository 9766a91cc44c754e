package perf

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"time"

	"svsim/internal/baseline"
	"svsim/internal/circuit"
	"svsim/internal/core"
	"svsim/internal/mpibase"
	"svsim/internal/obs"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
	"svsim/internal/statevec"
)

// tol is how far a state may sit from a reference computed another way:
// the QFT closed form, internal/baseline, the single backend for the
// distributed paths.
const tol = 1e-9

// sim is one of the four simulation workloads: one circuit, one core
// backend, a rep is one Backend.Run.
type sim struct {
	*env
	name    string
	backend string
	cfg     core.Config

	qftInput uint64 // the basis state the QFT workloads transform
	circ     *circuit.Circuit
	b        core.Backend

	reps   []simRep
	last   *core.Result // of the latest rep
	tracer *obs.Tracer  // of the latest traced rep
	single float64      // wall of verify's single-backend run, s
}

// simRep is what one rep left behind: enough to verify it and to split
// its wall into layers.
type simRep struct {
	traced             bool
	wall, compile, exe float64 // s
	fp                 uint64  // fingerprint of the final state; 0 if the run failed
}

func newSim(name string, e *env) *sim {
	w := &sim{env: e, name: name, cfg: core.Config{Style: statevec.Vectorized}}
	switch name {
	case "qft22_single":
		w.backend = "single"
	case "qft22_tiled_mt":
		w.backend, w.cfg.PEs, w.cfg.Tile = "threaded", 2, true
	case "rqc20_pgas_naive":
		w.backend, w.cfg.PEs, w.cfg.Sched = "scale-out", 2, sched.Naive
	case "rqc20_pgas_lazy":
		w.backend, w.cfg.PEs, w.cfg.Sched = "scale-out", 2, sched.Lazy
	}
	return w
}

// memShare: the per-gate QFT streams the 64 MiB state once per gate and
// follows the host's memory bandwidth; 0.8 is what made ten runs agree best
// in two sets of ten on the host the benchmark was sized on (the memory
// probe swings wider than the workload, so 1 over-corrects). The other
// three work on cache-sized pieces or between remote element operations,
// and did not follow the memory probe at all (rqc20_pgas_naive spread
// 3-5 % at 0 and 7-11 % at 0.5).
func (w *sim) memShare() float64 {
	if w.name == "qft22_single" {
		return 0.8
	}
	return 0
}

func (w *sim) isQFT() bool { return w.backend == "single" || w.backend == "threaded" }

// qftCircuit prepares |x> with X gates and appends QFT(n). x has exactly
// n/2 bits set, chosen by the seed, so every seed runs the same number of
// gates.
func qftCircuit(n int, seed int64) (*circuit.Circuit, uint64) {
	c := circuit.New("qft_x", n)
	var x uint64
	for _, q := range rand.New(rand.NewSource(seed)).Perm(n)[:n/2] {
		x |= 1 << uint(q)
	}
	for q := 0; q < n; q++ {
		if x>>uint(q)&1 == 1 {
			c.X(q)
		}
	}
	return c.Concat(qasmbench.QFT(n)), x
}

// qftAmplitude is the closed form of qftCircuit's output: the generator
// omits the final swaps, so amplitude k carries the phase of the
// bit-reversed index.
func qftAmplitude(n int, x, k uint64) complex128 {
	rev := bits.Reverse64(k) >> uint(64-n)
	frac := float64((x*rev)&(1<<uint(n)-1)) / float64(uint64(1)<<uint(n))
	return cmplx.Rect(math.Pow(2, -float64(n)/2), 2*math.Pi*frac)
}

func (w *sim) setup() error {
	gs := w.rec.Start("qasmbench.generate", 0, -1)
	if w.isQFT() {
		w.circ, w.qftInput = qftCircuit(w.size.QFTQubits, w.seed)
	} else {
		w.circ = qasmbench.RQC(w.size.RQCQubits, w.size.RQCLayers, w.seed)
	}
	w.rec.End(gs)
	var err error
	if w.b, err = core.NewBackend(w.backend, w.cfg); err != nil {
		return err
	}
	_, err = w.b.Run(w.circ) // warm-up
	return err
}

func (w *sim) rep(ctx repCtx) repOut {
	b, traced := w.b, ctx.rec != nil
	if traced {
		// The program's own tracer rides along in traced reps: the phase
		// report is built from it, and its cost is part of
		// trace_overhead_pct. obs.Metrics stays off: its per-op
		// histograms slow rqc20_pgas_naive's 25M remote ops tenfold,
		// which would leave nothing of the run to attribute.
		cfg := w.cfg
		cfg.Trace = obs.NewTracer()
		w.tracer = cfg.Trace
		b, _ = core.NewBackend(w.backend, cfg) // same name and geometry as set-up validated
	}
	t0 := time.Now()
	sp := ctx.rec.Start("core.Run", ctx.parent, ctx.op)
	res, err := b.Run(w.circ)
	ctx.rec.End(sp)
	wall := time.Since(t0).Seconds()
	if err != nil {
		w.note("rep_error %d %v", ctx.op, err)
		w.reps = append(w.reps, simRep{traced: traced, wall: wall})
		return repOut{runS: wall, failed: 1}
	}
	w.last = res
	w.reps = append(w.reps, simRep{traced: traced, wall: wall,
		compile: float64(res.Compile.TotalNS) / 1e9, exe: res.Elapsed.Seconds(), fp: fingerprint(res.State)})
	return repOut{runS: wall, ops: []float64{wall * 1e3}}
}

// fingerprint hashes a state's bits, so that every rep can be checked
// against the one state that is compared in full.
func fingerprint(s *statevec.State) uint64 {
	h := uint64(14695981039346656037)
	for i := range s.Re {
		h = (h ^ math.Float64bits(s.Re[i])) * 1099511628211
		h = (h ^ math.Float64bits(s.Im[i])) * 1099511628211
	}
	return h | 1 // never the zero that marks a failed rep
}

// runSingle runs c per-gate on the single backend: the reference the
// other paths of this repo are compared to.
func runSingle(c *circuit.Circuit) (*core.Result, float64, error) {
	t0 := time.Now()
	res, err := core.NewSingleDevice(core.Config{Style: statevec.Vectorized}).Run(c)
	return res, time.Since(t0).Seconds(), err
}

// maxDiff is the largest distance between a state and reference
// amplitudes.
func maxDiff(s *statevec.State, ref func(k int) complex128) float64 {
	var worst float64
	for k := 0; k < s.Dim; k++ {
		worst = math.Max(worst, cmplx.Abs(s.Amplitude(k)-ref(k)))
	}
	return worst
}

func (w *sim) verify() (int, error) {
	if w.last == nil {
		return 0, nil // every rep failed and is already counted
	}
	ok := true
	check := func(what string, diff, limit float64) {
		w.note("verify.%s %.3g abs", what, diff)
		if !(diff <= limit) {
			ok = false
		}
	}
	if w.isQFT() {
		// The closed form is itself checked against the independent
		// generic-matrix simulator, at a size that one can afford.
		small, x := qftCircuit(10, w.seed)
		amps, err := baseline.NewGenericMatrix().Run(small)
		if err != nil {
			return 0, err
		}
		var worst float64
		for k, a := range amps {
			worst = math.Max(worst, cmplx.Abs(a-qftAmplitude(10, x, uint64(k))))
		}
		check("closed_form_vs_baseline_n10", worst, tol)
		n := w.circ.NumQubits
		check("state_vs_closed_form", maxDiff(w.last.State, func(k int) complex128 { return qftAmplitude(n, w.qftInput, uint64(k)) }), tol)
	} else {
		// At n = 12 the same generator and seed are within reach of
		// the baseline; the distributed path must agree with it.
		small := qasmbench.RQC(12, w.size.RQCLayers, w.seed)
		amps, err := baseline.NewGenericMatrix().Run(small)
		if err != nil {
			return 0, err
		}
		res, err := w.b.Run(small)
		if err != nil {
			return 0, err
		}
		check("n12_vs_baseline", maxDiff(res.State, func(k int) complex128 { return amps[k] }), tol)
	}
	if w.name == "qft22_single" {
		w.single = median(w.walls(false))
	} else {
		sp := w.rec.Start("core.Run_single_reference", 0, -1)
		ref, wall, err := runSingle(w.circ)
		w.rec.End(sp)
		if err != nil {
			return 0, err
		}
		w.single = wall
		// The tiled path promises the per-gate path's bits. The
		// distributed kernels round differently from the single
		// backend's (6e-18 at n = 20), which the repo's own tests allow.
		limit := 0.0
		if !w.isQFT() {
			limit = tol
		}
		check("state_vs_single", w.last.State.MaxAbsDiff(ref.State), limit)
	}
	want := fingerprint(w.last.State)
	wrong := 0
	for _, r := range w.reps {
		if r.fp != 0 && (!ok || r.fp != want) {
			wrong++
		}
	}
	return wrong, nil
}

// walls returns the wall times of the traced or the untraced reps.
func (w *sim) walls(traced bool) []float64 {
	var out []float64
	for _, r := range w.reps {
		if r.traced == traced {
			out = append(out, r.wall)
		}
	}
	return out
}

func (w *sim) layer(m map[string]float64, runS float64) error {
	var compileS, exeS, otherS []float64
	for _, r := range w.reps {
		if r.traced && r.fp != 0 {
			compileS, exeS, otherS = append(compileS, r.compile), append(exeS, r.exe), append(otherS, r.wall-r.compile-r.exe)
		}
	}
	if len(exeS) == 0 || w.tracer == nil {
		return fmt.Errorf("no traced rep completed")
	}
	res := w.last
	m["core.compile_s"], m["core.exec_s"], m["core.other_s"] = median(compileS), median(exeS), median(otherS)
	m["core.gates"] = float64(res.SV.Gates)
	m["core.bytes_touched_mb"] = float64(res.SV.BytesTouched) / 1e6 // computed from array sizes, not measured
	m["core.eff_gbps"] = float64(res.SV.BytesTouched) / 1e9 / median(exeS)
	m["core.tile_sweeps"] = float64(res.SV.Sweeps)
	m["core.speedup_vs_single"] = w.single / runS
	m["pgas.remote_msgs"] = float64(res.Comm.RemoteMessages())
	m["pgas.remote_mb"] = float64(res.Comm.RemoteBytes) / 1e6
	m["pgas.barriers"] = float64(res.Comm.Barriers)
	m["compile.remaps"] = float64(res.Compile.Remaps)

	pr := obs.BuildPhaseReport(w.tracer, obs.PhaseReportOpts{Backend: w.backend, Workload: w.name, PEs: res.PEs,
		WallNS: res.Elapsed.Nanoseconds(), CompileNS: res.Compile.TotalNS})
	share := func(phases ...string) float64 {
		var s float64
		for _, pe := range pr.PerPE {
			for _, ph := range phases {
				s += float64(pe.PhasesNS[ph]) / float64(pe.WallNS)
			}
		}
		return s / float64(len(pr.PerPE))
	}
	m["core.compute_share"] = share(obs.PhaseCompute, obs.PhaseTile)
	m["core.pack_share"] = share(obs.PhasePack, obs.PhasePackIntra, obs.PhasePackInter)
	m["core.wire_share"] = share(obs.PhaseWire, obs.PhaseWireIntra, obs.PhaseWireInter)
	m["core.unpack_share"] = share(obs.PhaseUnpack)
	m["core.barrier_share"] = share(obs.PhaseBarrier)
	m["core.load_imbalance_pct"] = pr.LoadImbalancePct
	m["core.exec_share"] = median(exeS) / median(w.walls(true))

	if w.name == "qft22_tiled_mt" {
		// The same tile plan on one thread: what threading adds or costs.
		cfg := w.cfg
		cfg.PEs = 0
		t0 := time.Now()
		sp := w.rec.Start("core.Run_single_tiled", 0, -1)
		_, err := core.NewSingleDevice(cfg).Run(w.circ)
		w.rec.End(sp)
		if err != nil {
			return err
		}
		m["core.tiled_vs_single"] = runS / time.Since(t0).Seconds()
	}
	if w.name == "rqc20_pgas_lazy" {
		// The program's tracer and metrics registry together, which the
		// traced reps do without (see rep), on the workload whose few
		// bulk exchanges leave something of the run.
		cfg := w.cfg
		cfg.Trace, cfg.Metrics = obs.NewTracer(), obs.NewMetrics()
		b, err := core.NewBackend(w.backend, cfg)
		if err != nil {
			return err
		}
		t0 := time.Now()
		sp := w.rec.Start("core.Run_observed", 0, -1)
		_, err = b.Run(w.circ)
		w.rec.End(sp)
		if err != nil {
			return err
		}
		m["obs.trace_overhead_pct"] = 100 * (time.Since(t0).Seconds() - runS) / runS
	}
	if w.name == "rqc20_pgas_naive" {
		// The two-sided baselines on the same circuit, for reference.
		mc := mpibase.Config{Ranks: 2, Style: statevec.Vectorized}
		sp := w.rec.Start("mpibase.Run", 0, -1)
		t0 := time.Now()
		_, err := mpibase.New(mc).Run(w.circ)
		m["mpibase.run_s"] = time.Since(t0).Seconds()
		w.rec.End(sp)
		if err != nil {
			return err
		}
		sp = w.rec.Start("mpibase.RemapRun", 0, -1)
		t0 = time.Now()
		_, err = mpibase.NewRemap(mc).Run(w.circ)
		m["mpibase.remap_run_s"] = time.Since(t0).Seconds()
		w.rec.End(sp)
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *sim) close() {}
