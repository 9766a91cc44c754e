package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"svsim/internal/compile"
	"svsim/internal/core"
	"svsim/internal/qasm"
	"svsim/internal/qasmbench"
	"svsim/internal/serve"
	"svsim/internal/statevec"
)

// jobTimeout bounds one job's wait for a terminal state; a job that is
// still not done by then is a failed op.
const jobTimeout = 30 * time.Second

// noCheckpoints is a preemption-checkpoint interval no job reaches. With
// the server's default of 16 steps a job is nine tenths fsyncs (6 MB of
// checkpoints a job, all kept), and its latency follows the host's disk,
// which no probe can bracket: ten runs of one commit spread 12-18 % on a
// calm host and 26 % when the driver measured them, and still 12 % at an
// interval of 128. Nothing preempts in this workload, so the checkpoints
// buy it nothing; what they cost is the traced run's ckpt.run_ratio and
// the ckpt probes.
const noCheckpoints = 1 << 30

var tenants = [2]string{"alice", "bob"}

// svc is the service workload: an in-process serve.Server behind a
// loopback httptest listener, driven by a closed loop of two clients, one
// per tenant; each submits its next job only after the previous one
// reached a terminal state. A rep is one burst, an op is one job.
type svc struct {
	*env
	dir    string
	srv    *serve.Server
	ts     *httptest.Server
	suite  []qasmbench.Entry
	inline []string      // the suite as OpenQASM text
	rng    [2]*rand.Rand // one seeded sequence per client
	deck   [2][]mixKey   // what is left of each client's current deck
	count  [2]int        // jobs drawn so far per client
	jobs   []svcJob      // every timed job, in completion order per client
	fleet  *core.Fleet   // for direct runs of the job mix, with its own warm plan cache
}

// mixKey is what a job's answer and cost depend on.
type mixKey struct {
	circ   int
	inline bool
}

// svcJob is what the client saw of one job.
type svcJob struct {
	traced                       bool
	key                          mixKey
	wantState                    bool
	rejected, done               bool
	latencyMS, submitUS, fetchMS float64
	polls                        int
	waitS, runS, estimateS       float64
	fp                           uint64 // of the fetched state
}

// memShare: the states are cache-resident.
func (w *svc) memShare() float64 { return 0 }

func (w *svc) setup() error {
	// The eight medium circuits plus one more of middling cost. Latency
	// is multi-modal by circuit (6 ms for cc_n12, 280 ms for sat), and
	// with an even number of equally frequent circuits the median job
	// would fall in the gap between two modes, where it measures only
	// their extremes; with nine it falls inside the fifth.
	rqc, err := qasmbench.ByName("rqc")
	if err != nil {
		return err
	}
	w.suite = append(qasmbench.Medium(), rqc)[:w.size.SvcCircuits]
	gs := w.rec.Start("qasm.Dump", 0, -1)
	for _, e := range w.suite {
		w.inline = append(w.inline, qasm.Dump(e.Build()))
	}
	w.rec.End(gs)
	for c := range w.rng {
		w.rng[c] = rand.New(rand.NewSource(w.seed*2 + int64(c)))
	}
	if w.dir, err = os.MkdirTemp(w.tmp, "srv-"); err != nil {
		return err
	}
	w.srv, err = serve.New(serve.Options{
		Fleets:          []serve.FleetDef{{Backend: "single", PEs: 1}, {Backend: "single", PEs: 1}},
		WorkDir:         w.dir,
		CheckpointEvery: noCheckpoints,
	})
	if err != nil {
		return err
	}
	w.ts = httptest.NewServer(w.srv.Handler())
	for _, j := range w.burst(repCtx{}) { // warm-up
		if !j.done {
			return fmt.Errorf("warm-up job did not finish (rejected=%v)", j.rejected)
		}
	}
	return nil
}

// draw makes client c's next job. Each client deals from a deck of the 18
// kinds of job (9 circuits, by name and as inline text) that its seeded
// sequence reshuffles whenever it runs out, so every 18 jobs have the
// same composition and the seed only orders them; a median over
// independent draws would move with the mix. Every 8th job has its state
// returned.
func (w *svc) draw(c int) (serve.JobSpec, svcJob) {
	if len(w.deck[c]) == 0 {
		for circ := range w.suite {
			w.deck[c] = append(w.deck[c], mixKey{circ, false}, mixKey{circ, true})
		}
		w.rng[c].Shuffle(len(w.deck[c]), func(i, j int) { w.deck[c][i], w.deck[c][j] = w.deck[c][j], w.deck[c][i] })
	}
	key := w.deck[c][0]
	w.deck[c] = w.deck[c][1:]
	w.count[c]++
	spec := serve.JobSpec{Tenant: tenants[c], Fuse: true, ReturnState: w.count[c]%8 == 0}
	if key.inline {
		spec.QASM, spec.Name = w.inline[key.circ], w.suite[key.circ].Name
	} else {
		spec.Circuit = w.suite[key.circ].Name
	}
	return spec, svcJob{key: key, wantState: spec.ReturnState}
}

// burst runs the closed loop over one deck per client: each client submits
// its deck's jobs one after the other.
func (w *svc) burst(ctx repCtx) []svcJob {
	var wg sync.WaitGroup
	var per [2][]svcJob
	var panicked [2]any
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// A panic here would end the process past Run's cleanup;
			// it is raised again below, on the goroutine that cleans up.
			defer func() { panicked[c] = recover() }()
			for n := 0; n < 2*len(w.suite); n++ {
				spec, j := w.draw(c)
				j.traced = ctx.rec != nil
				w.runJob(ctx, spec, &j)
				per[c] = append(per[c], j)
			}
		}(c)
	}
	wg.Wait()
	for _, p := range panicked {
		if p != nil {
			panic(p)
		}
	}
	return append(per[0], per[1]...)
}

// runJob submits one job, polls it to a terminal state every millisecond
// and fetches the state if the job asked to keep it.
func (w *svc) runJob(ctx repCtx, spec serve.JobSpec, j *svcJob) {
	client, base := w.ts.Client(), w.ts.URL
	body, _ := json.Marshal(spec) // a struct of strings, ints and bools
	jsp := ctx.rec.Start("bench.job", ctx.parent, ctx.op)
	defer ctx.rec.End(jsp)

	t0 := time.Now()
	sp := ctx.rec.Start("serve.submit", jsp, ctx.op)
	var st serve.JobStatus
	code, err := doJSON(client, http.MethodPost, base+"/v1/jobs", body, &st)
	ctx.rec.End(sp)
	j.submitUS = float64(time.Since(t0).Nanoseconds()) / 1e3
	if err != nil || code != http.StatusAccepted {
		j.rejected = true
		return
	}
	sp = ctx.rec.Start("serve.poll", jsp, ctx.op)
	for !terminal(st.State) && time.Since(t0) < jobTimeout {
		time.Sleep(time.Millisecond)
		j.polls++
		if _, err := doJSON(client, http.MethodGet, base+"/v1/jobs/"+st.ID, nil, &st); err != nil {
			break
		}
	}
	ctx.rec.End(sp)
	j.latencyMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	j.done = st.State == serve.StateDone
	j.waitS, j.runS, j.estimateS = st.WaitSeconds, st.RunSeconds, st.Estimate.Seconds
	if !j.done || !j.wantState {
		return
	}
	t1 := time.Now()
	sp = ctx.rec.Start("serve.fetch_state", jsp, ctx.op)
	resp, err := client.Get(base + "/v1/jobs/" + st.ID + "/state")
	if err == nil {
		if resp.StatusCode == http.StatusOK {
			if state, rerr := statevec.ReadState(resp.Body); rerr == nil {
				j.fp = fingerprint(state)
			}
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse
		resp.Body.Close()
	}
	ctx.rec.End(sp)
	j.fetchMS = float64(time.Since(t1).Nanoseconds()) / 1e6
}

func terminal(s serve.JobState) bool {
	return s == serve.StateDone || s == serve.StateFailed || s == serve.StateCanceled
}

// doJSON makes one request and decodes a JSON reply into out.
func doJSON(client *http.Client, method, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

// rep runs one burst: one deck per client, so that every burst of every
// run has the same composition; a slower service makes the burst longer,
// not lighter. Its run_s is the makespan scaled to 100 jobs.
func (w *svc) rep(ctx repCtx) repOut {
	t0 := time.Now()
	jobs := w.burst(ctx)
	makespan := time.Since(t0).Seconds()
	w.jobs = append(w.jobs, jobs...)
	out := repOut{runS: makespan * 100 / float64(len(jobs))}
	for _, j := range jobs {
		if j.done {
			out.ops = append(out.ops, j.latencyMS)
		} else {
			out.failed++
		}
	}
	return out
}

// runDirect runs a job's circuit straight on a single-PE fleet, the way
// the service's fleets do but without the service; ckpt adds the
// service's default checkpoint interval. It returns the state's
// fingerprint and the wall time.
func (w *svc) runDirect(k mixKey, ckpt bool) (uint64, float64, error) {
	spec := serve.JobSpec{Circuit: w.suite[k.circ].Name}
	if k.inline {
		spec = serve.JobSpec{QASM: w.inline[k.circ], Name: w.suite[k.circ].Name}
	}
	c, err := spec.Load()
	if err != nil {
		return 0, 0, err
	}
	if w.fleet == nil {
		cfg := core.Config{Style: statevec.Vectorized, PEs: 1, Plans: compile.NewCache(compile.DefaultCacheSize)}
		if w.fleet, err = core.NewFleet("single", cfg); err != nil {
			return 0, 0, err
		}
	}
	job := core.JobConfig{Fuse: true}
	if ckpt {
		job.CheckpointEvery = 16
		if job.CheckpointDir, err = os.MkdirTemp(w.tmp, "direct-"); err != nil {
			return 0, 0, err
		}
	}
	t0 := time.Now()
	sp := w.rec.Start("core.Fleet.Run", 0, -1)
	res, err := w.fleet.Run(c, job)
	w.rec.End(sp)
	if err != nil {
		return 0, 0, err
	}
	return fingerprint(res.State), time.Since(t0).Seconds(), nil
}

// verify wants every job done and every returned state bit-identical to
// a direct core run of the same circuit.
func (w *svc) verify() (int, error) {
	direct := map[mixKey]uint64{} // fingerprint of a direct run's state
	wrong := 0
	for _, j := range w.jobs {
		if !j.done || !j.wantState {
			continue
		}
		fp, ok := direct[j.key]
		if !ok {
			var err error
			if fp, _, err = w.runDirect(j.key, false); err != nil {
				return 0, err
			}
			direct[j.key] = fp
		}
		if j.fp != fp {
			wrong++
		}
	}
	return wrong, nil
}

func (w *svc) layer(m map[string]float64, _ float64) error {
	// What each circuit costs when run directly, once its plan is cached
	// as it is in the warm service: without and with checkpoints. (The
	// inline form of a circuit costs the same; parsing is the service's.)
	type cost struct{ plain, ckpt float64 }
	costs := map[int]cost{}
	var submit, wait, run, fetch, relErr []float64
	var latency, direct, directCkpt, polls, rejected float64
	for _, j := range w.jobs {
		if !j.traced {
			continue
		}
		if j.rejected {
			rejected++
		}
		if !j.done {
			continue
		}
		submit, wait, run = append(submit, j.submitUS), append(wait, j.waitS*1e3), append(run, j.runS*1e3)
		if j.wantState {
			fetch = append(fetch, j.fetchMS)
		}
		relErr = append(relErr, math.Abs(j.estimateS-j.runS)/j.runS)
		polls += float64(j.polls)
		latency += j.latencyMS / 1e3
		c, ok := costs[j.key.circ]
		if !ok {
			named := mixKey{circ: j.key.circ}
			if _, _, err := w.runDirect(named, false); err != nil { // fills the plan cache
				return err
			}
			var err error
			if _, c.plain, err = w.runDirect(named, false); err != nil {
				return err
			}
			if _, c.ckpt, err = w.runDirect(named, true); err != nil {
				return err
			}
			costs[j.key.circ] = c
		}
		direct += c.plain
		directCkpt += c.ckpt
	}
	if len(run) == 0 {
		return fmt.Errorf("no traced job completed")
	}
	m["serve.submit_us"], m["serve.queue_wait_ms"], m["serve.run_ms"] = median(submit), median(wait), median(run)
	if len(fetch) > 0 {
		m["serve.fetch_ms"] = median(fetch)
	}
	m["serve.polls_per_job"] = polls / float64(len(run))
	m["serve.rejected"] = rejected
	st := w.srv.PlanCacheStats()
	m["serve.cache_cross_hits"] = float64(st.CrossLabelHits)
	m["compile.hit_ratio"] = float64(st.Hits) / float64(st.Hits+st.Misses)
	m["serve.overhead_ratio"] = latency / direct
	m["ckpt.run_ratio"] = directCkpt / direct
	m["perfmodel.est_rel_err_p90"] = quantile(relErr, 0.9)
	return nil
}

func (w *svc) close() {
	if w.ts != nil {
		w.ts.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	if w.fleet != nil {
		w.fleet.Close()
	}
	os.RemoveAll(w.dir) //nolint:errcheck // Run removes the parent and reports that error
}
