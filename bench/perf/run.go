package perf

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// Options selects one run: one workload, one seed, traced or not.
type Options struct {
	Workload string
	Seed     int64
	// Seconds is how long the timed reps run. A traced run spends half
	// of it untraced and half traced, so both medians come from one
	// process.
	Seconds float64
	Trace   bool
	Size    Sizes
	// WorkDir is where the run makes its temporary directory (service
	// checkpoints, the ckpt probe's shard). Run removes what it makes.
	WorkDir string
	// Timeout is the watchdog: a run still going after this long removes
	// its temporary directory and exits the process with code 3. Zero
	// means no watchdog.
	Timeout time.Duration
}

// die ends the process once the watchdog has purged the run's directory:
// it takes away the placeholder purge left and exits, with nothing in
// between for a writer to slip into. The self-test swaps it.
var die = func(placeholder string, code int) {
	os.Remove(placeholder) //nolint:errcheck // exiting
	os.Exit(code)
}

// setups is how many times an untraced run sets up before timing; setup_s
// is their median. A traced run, which does not report setup_s, sets up
// once.
const setups = 3

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the object a run prints as its last line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Report is a Result plus what a person reading the run wants next to it.
type Report struct {
	Result
	// Notes are "name value unit" lines that are not metrics: sample
	// counts, verify_s, fail_ratio, probe sizes, per-layer self times.
	Notes []string
	Spans []Span
}

// workload is one of the six. A value is used for one set-up.
type workload interface {
	// memShare is the share of the workload's time that scales with the
	// host's memory bandwidth; the rest scales with its CPU speed.
	memShare() float64
	// setup makes the inputs from the seed, builds the backend, runner
	// or server, and runs the untimed warm-up op.
	setup() error
	// rep runs one timed repetition.
	rep(ctx repCtx) repOut
	// verify checks the outputs of every rep so far and returns how
	// many ops answered wrongly.
	verify() (wrong int, err error)
	// layer adds the workload-derived per-layer metrics, from the traced
	// reps and from reference runs it makes itself.
	layer(m map[string]float64, untracedRunS float64) error
	close()
}

// repCtx places a rep in the run.
type repCtx struct {
	rec        *Recorder // nil in an untraced rep
	parent, op int       // the rep's span and index
}

// repOut is what one rep measured, as the clock read it.
type repOut struct {
	runS   float64   // this rep's contribution to run_s
	ops    []float64 // latency in ms of every op that completed
	failed int       // ops that errored, were refused or timed out
}

// env is what every workload gets from the run.
type env struct {
	seed int64
	size Sizes
	tmp  string    // the run's temporary directory
	rec  *Recorder // for set-up, verification and probe spans; nil in an untraced run
	note func(format string, args ...any)
}

// constructors makes a workload by name: the six of Workloads, and what
// the self-test adds.
var constructors = map[string]func(e *env) workload{
	"qft22_single":     func(e *env) workload { return newSim("qft22_single", e) },
	"qft22_tiled_mt":   func(e *env) workload { return newSim("qft22_tiled_mt", e) },
	"rqc20_pgas_naive": func(e *env) workload { return newSim("rqc20_pgas_naive", e) },
	"rqc20_pgas_lazy":  func(e *env) workload { return newSim("rqc20_pgas_lazy", e) },
	"vqe_sweep":        func(e *env) workload { return &vqe{env: e} },
	"svc_mixed":        func(e *env) workload { return &svc{env: e} },
}

// phase is the outcome of one timed phase. Its timings are adjusted for
// the host's speed (see calib.go); rawS and host are what they were made
// from.
type phase struct {
	runS   []float64
	ops    []float64
	failed int
	rawS   []float64 // run_s of each rep as the clock read it
	host   []float64 // the host factor each rep was divided by
}

// measure runs reps for about the budget: at least one, and another as
// long as at least half of it is expected to fit. A probe of the host's
// speed sits between every two reps; a rep is adjusted by the mean of the
// two around it.
func measure(w workload, cal *calibrator, rec *Recorder, budget time.Duration, firstOp int) phase {
	var p phase
	start := time.Now()
	before := quiesced(cal, w)
	for i := 0; ; i++ {
		t0 := time.Now()
		sp := rec.Start("bench.rep", 0, firstOp+i)
		out := w.rep(repCtx{rec: rec, parent: sp, op: firstOp + i})
		rec.End(sp)
		after := quiesced(cal, w)
		host := (before + after) / 2
		before = after
		p.rawS, p.host = append(p.rawS, out.runS), append(p.host, host)
		p.runS = append(p.runS, out.runS/host)
		for _, ms := range out.ops {
			p.ops = append(p.ops, ms/host)
		}
		p.failed += out.failed
		if time.Since(start)+time.Since(t0)/2 >= budget {
			return p
		}
	}
}

// quiesced collects what the last rep or set-up left on the heap and then
// probes the host. The collection serves both sides: the next rep starts on
// a clean heap, as a CLI user's single run does, and the probe does not
// share the CPU with the collector's sweeping of the program's garbage, so
// that it measures the host and not the program.
func quiesced(cal *calibrator, w workload) float64 {
	runtime.GC()
	return cal.factor(w.memShare())
}

// purge removes dir while goroutines of a hung run may still be writing
// checkpoints into it. It moves the tree aside and leaves an empty plain
// file in its place, so that their next MkdirAll fails and nothing can
// reappear; a writer that slips a new directory in between the two steps
// only costs another round.
func purge(dir string) {
	var aside []string
	for i := 0; i < 1000; i++ {
		to := fmt.Sprintf("%s.aside%d", dir, i)
		if os.Rename(dir, to) == nil {
			aside = append(aside, to)
		}
		if f, err := os.OpenFile(dir, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600); err == nil {
			f.Close()
			break
		}
	}
	for _, d := range aside {
		os.RemoveAll(d) //nolint:errcheck // exiting
	}
}

// Run executes one run and returns its report. Whatever happens (an
// error, a panic on its way up through here, the watchdog), the
// temporary directory is removed, and unless the watchdog ends the
// process the workload is closed first.
func Run(o Options) (rep *Report, err error) {
	if o.Seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive, got %v", o.Seconds)
	}
	newWorkload, ok := constructors[o.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.Workload)
	}
	if err := os.MkdirAll(o.WorkDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.WorkDir, "svperf-")
	if err != nil {
		return nil, err
	}
	// The watchdog stays armed until the workload is closed. Once it has
	// fired it ends the process: a run that the purge makes fail must not
	// get to exit first, with another code and the purge half done.
	var watchdog *time.Timer
	ended := make(chan struct{})
	if o.Timeout > 0 {
		watchdog = time.AfterFunc(o.Timeout, func() {
			defer close(ended)
			fmt.Fprintf(os.Stderr, "svperf: %s did not finish within %v\n", o.Workload, o.Timeout)
			purge(tmp)
			die(tmp, 3)
		})
	}
	rep = &Report{}
	e := &env{seed: o.Seed, size: o.Size, tmp: tmp,
		note: func(f string, a ...any) { rep.Notes = append(rep.Notes, fmt.Sprintf(f, a...)) }}
	if o.Trace {
		e.rec = NewRecorder()
	}
	cal, err := newCalibrator(o.Size.CalibQubits)
	if err != nil {
		os.RemoveAll(tmp) //nolint:errcheck // reporting the first error
		return nil, err
	}
	var w workload
	defer func() {
		cal.close()
		if w != nil {
			w.close()
		}
		if watchdog != nil && !watchdog.Stop() {
			<-ended
		}
		if rerr := os.RemoveAll(tmp); err == nil {
			err = rerr
		}
	}()

	var setupS []float64
	for k := 0; k < setups && (k == 0 || !o.Trace); k++ {
		if w != nil {
			w.close()
			w = nil
		}
		w = newWorkload(e)
		before := quiesced(cal, w)
		t0 := time.Now()
		if err = w.setup(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", o.Workload, err)
		}
		raw := time.Since(t0).Seconds()
		setupS = append(setupS, 2*raw/(before+quiesced(cal, w)))
	}

	budget := time.Duration(o.Seconds * float64(time.Second))
	var plain, traced phase
	if !o.Trace {
		plain = measure(w, cal, nil, budget, 0)
	} else {
		plain = measure(w, cal, nil, budget/2, 0)
		traced = measure(w, cal, e.rec, budget/2, len(plain.runS))
	}
	rss := peakRSSMiB() - cal.residentMiB()

	t0 := time.Now()
	vs := e.rec.Start("bench.verify", 0, -1)
	wrong, err := w.verify()
	e.rec.End(vs)
	if err != nil {
		return nil, fmt.Errorf("%s: verify: %w", o.Workload, err)
	}
	e.note("verify_s %.3f s", time.Since(t0).Seconds())

	rep.Attempted = len(plain.ops) + plain.failed + len(traced.ops) + traced.failed
	rep.Failed = plain.failed + traced.failed + wrong
	rep.Correct = wrong == 0
	e.note("fail_ratio %.6f ratio", float64(rep.Failed)/float64(rep.Attempted))
	e.note("reps %d count", len(plain.runS))
	e.note("rep_s %.4f s", plain.runS)
	e.note("rep_raw_s %.4f s", plain.rawS)
	e.note("host_factor %.3f ratio", plain.host)
	e.note("ops %d count", len(plain.ops))

	runS := median(plain.runS)
	if !o.Trace {
		err = finish(rep, EndToEnd, map[string]float64{
			"run_s": runS, "setup_s": median(setupS), "peak_rss_mb": rss,
			"job_p50_ms": median(plain.ops), "job_p95_ms": tail(plain.ops),
		})
		return rep, err
	}

	m := map[string]float64{}
	for _, d := range PerLayer {
		m[d.Name] = 0 // a layer the workload does not use reports a count of zero
	}
	m["trace_overhead_pct"] = 100 * (median(traced.runS) - runS) / runS
	e.note("traced_reps %d count", len(traced.runS))
	if err := w.layer(m, runS); err != nil {
		return nil, fmt.Errorf("%s: layer metrics: %w", o.Workload, err)
	}
	// The probes measure layers in isolation: not next to an idle
	// server and its checkpoint tree.
	w.close()
	w = nil
	runtime.GC()
	if err := probes(e, m); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	rep.Spans = e.rec.Spans()
	self := SelfTimes(rep.Spans)
	layers := make([]string, 0, len(self))
	for layer := range self {
		layers = append(layers, layer)
	}
	sort.Strings(layers)
	for _, layer := range layers {
		e.note("self.%s %.4f s", layer, self[layer])
	}
	err = finish(rep, PerLayer, m)
	return rep, err
}

// finish turns the measured values into the report's metrics, with their
// units, and checks that the run measured exactly the metrics its mode
// promises, each a finite number.
func finish(rep *Report, defs []Def, values map[string]float64) error {
	if len(values) != len(defs) {
		return fmt.Errorf("run measured %d metrics, its mode defines %d", len(values), len(defs))
	}
	rep.Metrics = make(map[string]Metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s: measured=%v value=%v", d.Name, ok, v)
		}
		rep.Metrics[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	return nil
}
