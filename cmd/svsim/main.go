// Command svsim runs a quantum circuit — a named suite workload or an
// OpenQASM 2.0 file — on one of the SV-Sim backends and reports the
// result: timing, work/communication statistics, measurement counts, and
// optionally the final state vector.
//
// Examples:
//
//	svsim -circuit ghz_state -shots 16
//	svsim -circuit qft_n15 -backend scale-out -pes 8 -coalesced
//	svsim -qasm bell.qasm -state
//	svsim -circuit bv_n14 -backend mpi -pes 4
//	svsim -circuit bv_n14 -backend mpi -pes 4 -sched lazy
//	svsim -circuit qft_n15 -backend scale-out -pes 8 -sched lazy
//	svsim -circuit qft_n15 -backend scale-out -pes 8 -trace trace.json -metrics m.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"svsim/internal/compile"
	"svsim/internal/core"
	"svsim/internal/obs"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
	"svsim/internal/statevec"
)

func main() {
	var (
		circuitName = flag.String("circuit", "", "named workload from the QASMBench-style suite")
		qasmFile    = flag.String("qasm", "", "OpenQASM 2.0 file to simulate")
		listNames   = flag.Bool("list", false, "list available named workloads and exit")
		backendName = flag.String("backend", "single", "backend: "+strings.Join(core.BackendNames(nil), " | "))
		pes         = flag.Int("pes", 1, "device/PE/rank count for distributed backends (power of two; a -resume checkpoint's when not given)")
		ppn         = flag.Int("ppn", 0, "PEs per node (power of two): group the fleet into nodes and run remaps as hierarchical two-level exchanges (0 = flat; bit-identical either way)")
		coalesced   = flag.Bool("coalesced", false, "use coalesced bulk transfers in the scale-out backend")
		schedName   = flag.String("sched", "naive", "gate schedule for distributed backends: naive | lazy (communication-avoiding remap)")
		style       = flag.String("style", "vector", "kernel loop style: scalar | vector")
		seed        = flag.Int64("seed", 1, "measurement random seed")
		shots       = flag.Int("shots", 0, "sample the final state this many times")
		printState  = flag.Bool("state", false, "print non-negligible final amplitudes")
		compact     = flag.Bool("compact", false, "run the compact (compound-gate) form of a named workload")
		fuse        = flag.Bool("fuse", false, "apply the gate-fusion optimization pass before running")
		tile        = flag.Bool("tile", false, "cache-blocked execution on the single-node backends: apply whole gate runs per cache-resident tile instead of one full state sweep per gate (bit-identical result)")
		tileBits    = flag.Int("tile-bits", 0, "tile size exponent (amplitudes per tile = 2^N); 0 derives it from the circuit's target strides")
		submitURL   = flag.String("submit", "", "submit the job to a running svserved instance at URL (e.g. localhost:9470) instead of executing locally; the report uses the exact binary state fetched back")
		tenantName  = flag.String("tenant", "", "tenant name for -submit (empty = the anonymous default tenant)")
		priority    = flag.Int("priority", 0, "scheduling priority for -submit; higher dispatches first and may preempt lower-priority jobs")
		traceFile   = flag.String("trace", "", "write a Chrome trace-event timeline (one track per PE) to FILE; view in Perfetto or chrome://tracing")
		metricsFile = flag.String("metrics", "", "write the metrics registry (gate latency, put/get size, barrier wait histograms) as JSON to FILE")
		metricsOut  = flag.String("metrics-out", "", "write the metrics registry as OpenMetrics text exposition to FILE at run end (also on abort)")
		metricsAddr = flag.String("metrics-listen", "", "serve OpenMetrics on ADDR/metrics for the duration of the run (shares a mux with /debug/flight and /debug/pprof)")
		phaseFile   = flag.String("phase-report", "", "write a phase-attribution report (per-PE wall-time split) as JSON to FILE and print the summary table")
		flightFile  = flag.String("flight", "", "write the flight recorder's event ring as JSONL to FILE at run end (also on abort)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on ADDR (e.g. localhost:6060) for the duration of the run")

		ckptEvery     = flag.Int("checkpoint-every", 0, "write a coordinated checkpoint every N schedule steps (0 = off; needs -checkpoint-dir)")
		ckptDir       = flag.String("checkpoint-dir", "", "checkpoint base directory (one ckpt-<step> subdirectory per checkpoint)")
		ckptFullEvery = flag.Int("checkpoint-full-every", 0, "write a full (self-contained) checkpoint every N checkpoints and incremental deltas in between (0 = every checkpoint full)")
		resume        = flag.String("resume", "", "restore from a checkpoint: a ckpt-<step> directory or a base directory (latest complete checkpoint); a -pes other than the checkpoint's reshards it")
		elastic       = flag.Bool("elastic", false, "on a PE failure, reshard the latest checkpoint onto half the fleet instead of restarting at full size")
		maxRestarts   = flag.Int("max-restarts", 0, "restart from the latest checkpoint up to N times after an injected PE failure")
		faultSpec     = flag.String("fault", "", "deterministic fault spec, e.g. 'kill:rank=1:op=barrier:after=30' or 'drop:rank=0:op=put:after=5:count=2' (semicolon-separated)")
		barrierTmo    = flag.Duration("barrier-timeout", 0, "fail a barrier wait after this long, naming the stalled ranks (0 = wait forever)")
		opRetries     = flag.Int("op-retries", 8, "retry budget for transiently failing one-sided operations")
	)
	flag.Parse()

	if *listNames {
		for _, e := range qasmbench.All() {
			fmt.Printf("%-12s n=%-3d %s\n", e.Name, e.Qubits, e.Description)
		}
		return
	}

	// The job spec is the same construction path the service decodes
	// from POST /v1/jobs: one description of what to run and how, used
	// both to drive a local backend and as the -submit wire payload.
	spec, err := buildSpec(*circuitName, *qasmFile, *compact, *schedName, *seed, *shots, *fuse, *tile, *tileBits)
	if err != nil {
		fatal(err)
	}
	c, err := spec.Load()
	if err != nil {
		fatal(fmt.Errorf("%v (try -list)", err))
	}

	if *submitURL != "" {
		spec.Tenant = *tenantName
		spec.Priority = *priority
		spec.Backend, spec.PEs = submitHints(*backendName, *pes)
		spec.ReturnState = *printState || *shots > 0
		runSubmit(*submitURL, spec, c, *seed, *shots, *printState)
		return
	}

	policy, err := sched.ParsePolicy(*schedName)
	if err != nil {
		fatal(err)
	}
	topo := sched.Topology{PEsPerNode: *ppn}
	if err := topo.Validate(); err != nil {
		fatal(err)
	}
	pesGiven := false
	flag.Visit(func(f *flag.Flag) { pesGiven = pesGiven || f.Name == "pes" })
	if !pesGiven {
		*pes = defaultPEs(*resume, *backendName)
	}

	opts := runOpts{
		backend: *backendName, pes: *pes, sched: string(policy), seed: *seed, fuse: *fuse,
		coalesced: *coalesced, tile: *tile, tileBits: *tileBits,
		checkpointEvery: *ckptEvery, checkpointDir: *ckptDir, ckptFullEvery: *ckptFullEvery,
		resume: *resume, elastic: *elastic,
		maxRestarts: *maxRestarts, faultSpec: *faultSpec,
		barrierTimeout: *barrierTmo, opRetries: *opRetries,
	}
	if err := opts.validate(); err != nil {
		fatal(err)
	}

	ks := statevec.Vectorized
	if *style == "scalar" {
		ks = statevec.Scalar
	}

	telemetry := newTelemetry(telemetryOpts{
		trace: *traceFile, metrics: *metricsFile, metricsOut: *metricsOut,
		listen: *metricsAddr, phase: *phaseFile, flight: *flightFile, pprof: *pprofAddr,
	})
	defer telemetry.close()
	latch := installStopHandler(telemetry.flight)

	cfg := core.Config{
		Style: ks, PEs: *pes, Coalesced: *coalesced, Topology: topo,
		Trace: telemetry.tracer, Metrics: telemetry.metrics,
		Flight:          telemetry.flight,
		CheckpointEvery: opts.checkpointEvery, CheckpointDir: opts.checkpointDir, CheckpointFullEvery: opts.ckptFullEvery,
		Resume: opts.resume, Elastic: opts.elastic, Stop: latch,
		MaxRestarts: opts.maxRestarts,
		Fault:       opts.injector(), Timeouts: opts.timeouts(),
	}
	spec.ApplyCore(&cfg) // seed, fusion, schedule, tiling — the spec's slice of the config
	backend, err := core.NewBackend(*backendName, cfg)
	if err != nil {
		fatal(err)
	}

	telemetry.beginRun(*backendName, c.Name, *pes)
	res, err := backend.Run(c)
	if err != nil {
		telemetry.fail(err)
	}
	fmt.Printf("circuit : %s\n", c.Summary())
	fmt.Printf("backend : %s (%d PE)\n", res.Backend, res.PEs)
	fmt.Printf("elapsed : %v\n", res.Elapsed)
	printCompile(res.Compile, *fuse)
	fmt.Printf("kernels : gates=%d amps=%d bytes=%d sweeps=%d\n",
		res.SV.Gates, res.SV.AmpsTouched, res.SV.BytesTouched, res.SV.Sweeps)
	if res.PEs > 1 {
		fmt.Printf("comm    : %s\n", res.Comm)
	}
	if res.MPI != (core.MPIStats{}) {
		fmt.Printf("mpi     : %s\n", res.MPI)
	}
	if topo.Enabled() && res.PEs > 1 {
		fmt.Printf("topology: %d PEs/node, %d exchange phase(s), intra=%dB inter=%dB\n",
			topo.PEsPerNode, res.ExchangePhases, res.IntraBytes, res.InterBytes)
	}
	if res.Ckpt.Count > 0 || res.Recoveries > 0 {
		fmt.Printf("ckpt    : %d checkpoint(s), %d bytes, %d recoveries\n", res.Ckpt.Count, res.Ckpt.Bytes, res.Recoveries)
	}
	if c.NumClbits > 0 {
		fmt.Printf("cbits   : %0*b\n", c.NumClbits, res.Cbits)
	}
	telemetry.finish(res.Elapsed.Nanoseconds(), res.Compile.TotalNS, res.Mem)
	report(res.State, *seed, *shots, *printState)
}

// telemetryOpts is the flag surface that selects observability sinks.
type telemetryOpts struct {
	trace      string // Chrome trace file
	metrics    string // metrics registry as JSON
	metricsOut string // metrics registry as OpenMetrics text
	listen     string // OpenMetrics + flight + pprof HTTP listener
	phase      string // phase-attribution report (JSON)
	flight     string // flight recorder dump (JSONL)
	pprof      string // standalone pprof listener
}

// telemetry bundles the optional observability sinks selected by flags
// and knows how to drain all of them on both the clean and abort exits.
type telemetry struct {
	tracer  *obs.Tracer
	metrics *obs.Metrics
	flight  *obs.FlightRecorder
	opts    telemetryOpts

	// Run identity captured by beginRun so an abort can still stamp a
	// phase report when the backend never returned a Result.
	backend  string
	workload string
	pes      int
	runStart time.Time

	stops []func() error
}

func newTelemetry(o telemetryOpts) *telemetry {
	t := &telemetry{opts: o}
	if o.trace != "" || o.phase != "" {
		t.tracer = obs.NewTracer()
	}
	if o.metrics != "" || o.metricsOut != "" || o.listen != "" {
		t.metrics = obs.NewMetrics()
	}
	if o.flight != "" || o.listen != "" {
		t.flight = obs.NewFlightRecorder(obs.DefaultFlightCap)
	}
	if o.listen != "" {
		addr, stop, err := obs.StartServer(o.listen, obs.ServeOpts{
			Metrics: t.metrics, Flight: t.flight, Pprof: true,
		})
		if err != nil {
			fatal(err)
		}
		t.stops = append(t.stops, stop)
		fmt.Printf("metrics : serving http://%s/metrics\n", addr)
	}
	if o.pprof != "" {
		addr, stop, err := obs.StartPprof(o.pprof)
		if err != nil {
			fatal(err)
		}
		t.stops = append(t.stops, stop)
		fmt.Printf("pprof   : serving http://%s/debug/pprof/\n", addr)
	}
	return t
}

// beginRun records the run identity used to stamp phase reports; the
// abort path measures wall time from here when no Result exists.
func (t *telemetry) beginRun(backend, workload string, pes int) {
	t.backend, t.workload, t.pes, t.runStart = backend, workload, pes, time.Now()
}

// finish drains every sink after a successful run and reports the
// post-run memory snapshot. Sink write failures are fatal, matching the
// rest of the CLI's error handling.
func (t *telemetry) finish(wallNS, compileNS int64, mem *obs.MemSnapshot) {
	t.phaseReport(wallNS, compileNS, os.Stdout)
	if err := t.writeSinks(os.Stdout); err != nil {
		fatal(err)
	}
	if mem != nil {
		fmt.Printf("mem     : %s\n", mem)
	}
}

// fail drains every sink before exiting: the abort path is exactly when
// the trace, metrics, and flight recorder matter most, so a failed run
// must not lose them. Sink write errors are reported but do not mask
// the run failure. A graceful interruption (ErrInterrupted) flushes the
// same sinks but exits 130, the conventional fatal-signal status.
func (t *telemetry) fail(err error) {
	if errors.Is(err, core.ErrInterrupted) {
		t.flight.Record(-1, obs.EventInterrupted, err.Error(), 0)
		t.phaseReport(time.Since(t.runStart).Nanoseconds(), 0, os.Stderr)
		if werr := t.writeSinks(os.Stderr); werr != nil {
			fmt.Fprintln(os.Stderr, "svsim: telemetry:", werr)
		}
		t.close()
		fmt.Fprintln(os.Stderr, "svsim:", err)
		os.Exit(130)
	}
	t.flight.Record(-1, obs.EventRunFailed, err.Error(), 0)
	t.phaseReport(time.Since(t.runStart).Nanoseconds(), 0, os.Stderr)
	if werr := t.writeSinks(os.Stderr); werr != nil {
		fmt.Fprintln(os.Stderr, "svsim: telemetry:", werr)
	}
	t.close()
	fatal(err)
}

// phaseReport builds the phase-attribution report when requested,
// writes the JSON artifact, and prints the summary table to w.
func (t *telemetry) phaseReport(wallNS, compileNS int64, w io.Writer) {
	if t.opts.phase == "" {
		return
	}
	rep := obs.BuildPhaseReport(t.tracer, obs.PhaseReportOpts{
		Backend: t.backend, Workload: t.workload, PEs: t.pes,
		WallNS: wallNS, CompileNS: compileNS,
	})
	if err := rep.WriteFile(t.opts.phase); err != nil {
		fmt.Fprintln(os.Stderr, "svsim: telemetry:", err)
		return
	}
	fmt.Fprint(w, rep.Summary())
	fmt.Fprintf(w, "phases  : wrote %s\n", t.opts.phase)
}

// writeSinks drains the file-backed sinks, announcing each artifact on
// w; it keeps going past failures and returns the first error.
func (t *telemetry) writeSinks(w io.Writer) error {
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if t.tracer != nil && t.opts.trace != "" {
		if err := t.tracer.WriteFile(t.opts.trace); err != nil {
			keep(err)
		} else {
			fmt.Fprintf(w, "trace   : wrote %s (%d spans, %d tracks)\n",
				t.opts.trace, t.tracer.TotalEvents(), len(t.tracer.Tracks()))
		}
	}
	if t.metrics != nil && t.opts.metrics != "" {
		if err := t.metrics.WriteFile(t.opts.metrics); err != nil {
			keep(err)
		} else {
			fmt.Fprintf(w, "metrics : wrote %s\n", t.opts.metrics)
		}
	}
	if t.metrics != nil && t.opts.metricsOut != "" {
		if err := t.metrics.WriteOpenMetricsFile(t.opts.metricsOut); err != nil {
			keep(err)
		} else {
			fmt.Fprintf(w, "openmet : wrote %s\n", t.opts.metricsOut)
		}
	}
	if t.flight != nil && t.opts.flight != "" {
		if err := t.flight.WriteFile(t.opts.flight); err != nil {
			keep(err)
		} else {
			fmt.Fprintf(w, "flight  : wrote %s (%d events, %d dropped)\n",
				t.opts.flight, t.flight.Len(), t.flight.Dropped())
		}
	}
	return firstErr
}

func (t *telemetry) close() {
	for _, stop := range t.stops {
		stop() //nolint:errcheck // shutting down on exit
	}
	t.stops = nil
}

func report(st *statevec.State, seed int64, shots int, printState bool) {
	if printState {
		fmt.Println("state   :")
		for i := 0; i < st.Dim; i++ {
			if p := st.Probability(i); p > 1e-9 {
				fmt.Printf("  |%0*b>  amp=%.6f%+.6fi  p=%.6f\n",
					st.N, i, st.Re[i], st.Im[i], p)
			}
		}
	}
	if shots > 0 {
		rng := newRNG(seed)
		counts := st.Counts(rng, shots)
		keys := make([]int, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return counts[keys[i]] > counts[keys[j]] })
		fmt.Printf("samples : %d shots\n", shots)
		for i, k := range keys {
			if i >= 16 {
				fmt.Printf("  ... %d more outcomes\n", len(keys)-16)
				break
			}
			fmt.Printf("  |%0*b>  %d\n", st.N, k, counts[k])
		}
	}
}

// printCompile reports the compile pipeline's work when the fusion pass
// was requested (without -fuse the pipeline is pass-through and the line
// would be noise).
func printCompile(cst compile.Stats, fuse bool) {
	if !fuse {
		return
	}
	source := "fresh"
	if cst.CacheHit {
		source = "cache hit"
	}
	fmt.Printf("compile : fuse %d->%d gates (%d runs, %d cancelled, %d gadgets of %d gates), %s, %v\n",
		cst.Fusion.InputGates, cst.Fusion.OutputGates,
		cst.Fusion.FusedRuns, cst.Fusion.Cancellations,
		cst.Gadgets, cst.GadgetGates,
		source, time.Duration(cst.TotalNS))
}

// installStopHandler wires SIGINT/SIGTERM to a graceful stop: the first
// signal triggers the latch (the run writes a final checkpoint at the
// next boundary and unwinds with ErrInterrupted); a second signal aborts
// immediately.
func installStopHandler(rec *obs.FlightRecorder) *core.StopLatch {
	latch := &core.StopLatch{}
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-ch
		fmt.Fprintf(os.Stderr, "svsim: %v: stopping at the next checkpoint boundary (signal again to abort now)\n", s)
		rec.Record(-1, obs.EventInterrupted, s.String(), 0)
		latch.Trigger()
		<-ch
		os.Exit(1)
	}()
	return latch
}

func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "svsim:", err)
	os.Exit(1)
}
