package perf

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"svsim/internal/batch"
	"svsim/internal/circuit"
	"svsim/internal/compile"
	"svsim/internal/core"
	"svsim/internal/qasmbench"
	"svsim/internal/statevec"
)

// vqe is the parameter-sweep workload: a rep is one batch.Runner.RunAll
// over every point, an op is one point.
type vqe struct {
	*env
	circs  []*circuit.Circuit
	runner *batch.Runner
	buildS float64

	mu      sync.Mutex // guards pointMS and span: the two workers report concurrently
	pointMS []float64
	span    spanSite

	reps   []vqeRep
	warm   compile.CacheStats // the plan cache after the warm-up, before the first timed rep
	sample []int              // the points verify re-runs
}

// spanSite is where the runner's workers hang their per-point spans.
type spanSite struct {
	rec        *Recorder
	parent, op int
}

// vqeRep is what one RunAll left behind.
type vqeRep struct {
	traced             bool
	wall, compile, exe float64  // s; compile and exe summed over points
	fps                []uint64 // per point
	sampled            []*statevec.State
}

// timedBackend times each point at the boundary between batch and core,
// which is where a point's latency is defined.
type timedBackend struct {
	core.Backend
	w *vqe
}

func (t timedBackend) Run(c *circuit.Circuit) (*core.Result, error) {
	t.w.mu.Lock()
	site := t.w.span
	t.w.mu.Unlock()
	t0 := time.Now()
	sp := site.rec.Start("core.Run", site.parent, site.op)
	res, err := t.Backend.Run(c)
	site.rec.End(sp)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	t.w.mu.Lock()
	t.w.pointMS = append(t.w.pointMS, ms)
	t.w.mu.Unlock()
	return res, err
}

// memShare: the states are L1-resident.
func (w *vqe) memShare() float64 { return 0 }

func (w *vqe) setup() error {
	n, np := w.size.UCCSDQubits, qasmbench.UCCSDNumParams(w.size.UCCSDQubits)
	rng := rand.New(rand.NewSource(w.seed))
	t0 := time.Now()
	sp := w.rec.Start("qasmbench.BuildUCCSD", 0, -1)
	w.circs = make([]*circuit.Circuit, w.size.Points)
	for i := range w.circs {
		thetas := make([]float64, np)
		for j := range thetas {
			thetas[j] = 0.05 + rng.Float64() // away from the zero angles fusion would drop
		}
		w.circs[i] = qasmbench.BuildUCCSD(n, thetas)
	}
	w.rec.End(sp)
	w.buildS = time.Since(t0).Seconds()
	w.runner = batch.New(2, core.Config{Style: statevec.Vectorized, Fuse: true}).
		WithBackendFactory(func(cfg core.Config) core.Backend { return timedBackend{core.NewSingleDevice(cfg), w} })
	// Verify four points spread over the sweep.
	for i := 0; i < 4; i++ {
		w.sample = append(w.sample, i*(len(w.circs)-1)/3)
	}
	if _, err := w.runner.RunAll(w.circs); err != nil { // warm-up: fills the plan cache
		return err
	}
	w.warm = w.runner.PlanCache().Stats()
	return nil
}

func (w *vqe) rep(ctx repCtx) repOut {
	t0 := time.Now()
	sp := ctx.rec.Start("batch.RunAll", ctx.parent, ctx.op)
	w.mu.Lock()
	w.pointMS, w.span = nil, spanSite{ctx.rec, sp, ctx.op}
	w.mu.Unlock()
	res, err := w.runner.RunAll(w.circs)
	ctx.rec.End(sp)
	wall := time.Since(t0).Seconds()
	if err != nil {
		w.note("rep_error %d %v", ctx.op, err)
		return repOut{runS: wall, failed: len(w.circs)}
	}
	r := vqeRep{traced: ctx.rec != nil, wall: wall}
	for _, x := range res {
		r.compile += float64(x.Compile.TotalNS) / 1e9
		r.exe += x.Elapsed.Seconds()
		r.fps = append(r.fps, fingerprint(x.State))
	}
	for _, i := range w.sample {
		r.sampled = append(r.sampled, res[i].State)
	}
	w.reps = append(w.reps, r)
	w.mu.Lock()
	defer w.mu.Unlock()
	return repOut{runS: wall, ops: w.pointMS}
}

// verify re-runs the sampled points unfused and uncached on the single
// backend; the sweep must agree within tol there, and every rep must
// return bit-identical states for every point.
func (w *vqe) verify() (int, error) {
	if len(w.reps) == 0 {
		return 0, nil
	}
	bad := map[int]bool{} // points with a wrong answer in some rep
	var worst float64
	for si, i := range w.sample {
		ref, _, err := runSingle(w.circs[i])
		if err != nil {
			return 0, err
		}
		for _, r := range w.reps {
			d := maxDiff(r.sampled[si], ref.State.Amplitude)
			worst = math.Max(worst, d)
			if !(d <= tol) {
				bad[i] = true
			}
		}
	}
	w.note("verify.sampled_vs_unfused_single %.3g abs", worst)
	wrong := 0
	for _, r := range w.reps {
		for i, fp := range r.fps {
			if bad[i] || fp != w.reps[0].fps[i] {
				wrong++
			}
		}
	}
	return wrong, nil
}

func (w *vqe) layer(m map[string]float64, runS float64) error {
	var walls, compileS, exeS []float64
	for _, r := range w.reps {
		if r.traced {
			walls, compileS, exeS = append(walls, r.wall), append(compileS, r.compile), append(exeS, r.exe)
		}
	}
	if len(walls) == 0 {
		return fmt.Errorf("no traced rep completed")
	}
	// Two workers, so a rep has 2 x wall CPU-seconds to account for.
	cpu := 2 * median(walls)
	m["core.compile_s"], m["core.exec_s"] = median(compileS), median(exeS)
	m["core.other_s"] = cpu - median(compileS) - median(exeS)
	m["compile.share"] = median(compileS) / cpu
	m["core.exec_share"] = median(exeS) / cpu
	st := w.runner.PlanCache().Stats()
	hits, misses := st.Hits-w.warm.Hits, st.Misses-w.warm.Misses
	m["compile.hit_ratio"] = float64(hits) / float64(hits+misses)
	m["batch.points_per_s"] = float64(len(w.circs)) / runS
	m["circuit.build_ms"] = w.buildS * 1e3
	m["core.gates"] = float64(w.circs[0].NumGates())
	return nil
}

func (w *vqe) close() {}
