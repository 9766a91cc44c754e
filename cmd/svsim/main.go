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
//	svsim -circuit qft_n15 -backend scale-out -pes 8 -obs-dir obs
package main

import (
	"errors"
	"flag"
	"fmt"
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
		coalesced   = flag.Bool("coalesced", false, "use coalesced bulk transfers in the scale-out backend")
		schedName   = flag.String("sched", "naive", "gate schedule for distributed backends: naive | lazy (communication-avoiding remap)")
		style       = flag.String("style", "vector", "kernel loop style: scalar | vector")
		seed        = flag.Int64("seed", 1, "measurement random seed")
		shots       = flag.Int("shots", 0, "run this many shots and print the counts: by classical register when the program measures, else by basis state")
		printState  = flag.Bool("state", false, "print non-negligible final amplitudes")
		compact     = flag.Bool("compact", false, "run the compact (compound-gate) form of a named workload")
		fuse        = flag.Bool("fuse", false, "apply the gate-fusion optimization pass before running")
		tileBits    = flag.Int("tile-bits", 0, "tile size exponent (amplitudes per tile = 2^N) of the cache-blocked gate runs every rank applies; 0 derives it from the circuit's target strides, and N at or above a rank's window (n - log2 pes) runs every gate as its own sweep")
		submitURL   = flag.String("submit", "", "submit the job to a running svserved instance at URL (e.g. localhost:9470) instead of executing locally; the report uses the exact binary state fetched back")
		tenantName  = flag.String("tenant", "", "tenant name for -submit (empty = the anonymous default tenant)")
		priority    = flag.Int("priority", 0, "scheduling priority for -submit; higher dispatches first and may preempt lower-priority jobs")
		obsDir      = flag.String("obs-dir", "", "write the run's observability artifacts into DIR at exit, clean or aborted: trace.json (Chrome trace, one track per PE), metrics.om (OpenMetrics), phases.json (per-PE wall-time split, summary printed) and flight.jsonl (event ring)")
		obsListen   = flag.String("obs-listen", "", "serve /metrics (OpenMetrics), /debug/flight and /debug/pprof on ADDR (e.g. localhost:9464) for the duration of the run")

		ckptEvery   = flag.Int("checkpoint-every", 0, "write a coordinated checkpoint every N schedule steps (0 = off; needs -checkpoint-dir)")
		ckptDir     = flag.String("checkpoint-dir", "", "checkpoint base directory (one ckpt-<step> subdirectory per checkpoint)")
		resume      = flag.String("resume", "", "restore from a checkpoint: a ckpt-<step> directory or a base directory (latest complete checkpoint); a -pes other than the checkpoint's reshards it")
		elastic     = flag.Bool("elastic", false, "on a PE failure, reshard the latest checkpoint onto half the fleet instead of restarting at full size")
		maxRestarts = flag.Int("max-restarts", 0, "restart from the latest checkpoint up to N times after an injected PE failure")
		faultSpec   = flag.String("fault", "", "deterministic fault spec, e.g. 'kill:rank=1:op=barrier:after=30' or 'drop:rank=0:op=put:after=5:count=2' (semicolon-separated)")
		barrierTmo  = flag.Duration("barrier-timeout", 0, "fail a barrier wait after this long, naming the stalled ranks (0 = wait forever)")
		opRetries   = flag.Int("op-retries", 8, "retry budget for transiently failing one-sided operations")
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
	spec, err := buildSpec(*circuitName, *qasmFile, *compact, *schedName, *seed, *shots, *fuse, *tileBits)
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
		spec.ReturnState = *printState
		runSubmit(*submitURL, spec, c, *shots, *printState)
		return
	}

	policy, err := sched.ParsePolicy(*schedName)
	if err != nil {
		fatal(err)
	}
	pesGiven := false
	flag.Visit(func(f *flag.Flag) { pesGiven = pesGiven || f.Name == "pes" })
	if !pesGiven {
		*pes = defaultPEs(*resume, *backendName)
	}

	opts := runOpts{
		backend: *backendName, pes: *pes, sched: string(policy), seed: *seed, fuse: *fuse,
		coalesced: *coalesced, checkpointEvery: *ckptEvery, checkpointDir: *ckptDir,
		resume: *resume, elastic: *elastic,
		maxRestarts: *maxRestarts, faultSpec: *faultSpec,
		barrierTimeout: *barrierTmo, opRetries: *opRetries, obsDir: *obsDir,
	}
	if err := opts.validate(); err != nil {
		fatal(err)
	}

	ks := statevec.Vectorized
	if *style == "scalar" {
		ks = statevec.Scalar
	}

	sinks, err := obs.Open(*obsDir, *obsListen)
	if err != nil {
		fatal(err)
	}
	defer sinks.Close() //nolint:errcheck // shutting down on exit
	if sinks.Addr != "" {
		fmt.Printf("obs     : serving http://%s/metrics, /debug/flight, /debug/pprof/\n", sinks.Addr)
	}
	latch := installStopHandler(sinks.Flight)

	cfg := core.Config{
		Style: ks, PEs: *pes, Coalesced: *coalesced,
		Trace: sinks.Tracer, Metrics: sinks.Metrics,
		Flight:          sinks.Flight,
		CheckpointEvery: opts.checkpointEvery, CheckpointDir: opts.checkpointDir,
		Resume: opts.resume, Elastic: opts.elastic, Stop: latch,
		MaxRestarts: opts.maxRestarts,
		Fault:       opts.injector(), Timeouts: opts.timeouts(),
	}
	spec.ApplyCore(&cfg) // seed, fusion, schedule, tiling — the spec's slice of the config
	backend, err := core.NewBackend(*backendName, cfg)
	if err != nil {
		fatal(err)
	}

	phases := obs.PhaseReportOpts{Backend: *backendName, Workload: c.Name, PEs: *pes}
	start := time.Now()
	res, err := backend.Run(c)
	if err != nil {
		phases.WallNS = time.Since(start).Nanoseconds()
		abort(sinks, phases, err)
	}
	fmt.Printf("circuit : %s\n", c.Summary())
	fmt.Printf("backend : %s (%d PE)\n", res.Backend, res.PEs)
	fmt.Printf("elapsed : %v\n", res.Elapsed)
	// A fresh run folds the plan's classical prefix; a resumed one runs
	// from its checkpoint.
	printCompile(res.Compile, *fuse, *resume == "")
	fmt.Printf("kernels : gates=%d amps=%d bytes=%d sweeps=%d\n",
		res.SV.Gates, res.SV.AmpsTouched, res.SV.BytesTouched, res.SV.Sweeps)
	if res.PEs > 1 {
		fmt.Printf("comm    : %s\n", res.Comm)
	}
	if res.MPI != (core.MPIStats{}) {
		fmt.Printf("mpi     : %s\n", res.MPI)
	}
	if res.Ckpt.Count > 0 || res.Recoveries > 0 {
		fmt.Printf("ckpt    : %d checkpoint(s), %d bytes, %d recoveries\n", res.Ckpt.Count, res.Ckpt.Bytes, res.Recoveries)
	}
	if c.NumClbits > 0 {
		fmt.Printf("cbits   : %0*b\n", c.NumClbits, res.Cbits)
	}
	var counts map[string]int
	if *shots > 0 {
		// The shots run on the run's backend and execution settings,
		// without its checkpoints, faults and observability sinks.
		scfg := core.Config{Style: ks, PEs: *pes, Coalesced: *coalesced, Stop: latch, Timeouts: opts.timeouts()}
		spec.ApplyCore(&scfg)
		sb, err := core.NewBackend(*backendName, scfg)
		var raw map[uint64]int
		if err == nil {
			raw, err = core.RunShots(sb, c, *shots, *seed)
		}
		if err != nil {
			phases.WallNS = time.Since(start).Nanoseconds()
			abort(sinks, phases, err)
		}
		counts = core.ShotCounts(c, raw)
	}
	phases.WallNS, phases.CompileNS = res.Elapsed.Nanoseconds(), res.Compile.TotalNS
	if err := sinks.Flush(os.Stdout, phases); err != nil {
		fatal(err)
	}
	if res.Mem != nil {
		fmt.Printf("mem     : %s\n", res.Mem)
	}
	report(res.State, counts, *shots, *printState)
}

// abort flushes the sinks before exiting: the abort path is exactly when
// the trace, metrics and flight trail matter most, so a failed run must
// not lose them. A flush error is reported but does not mask the run's.
// A graceful interruption (ErrInterrupted) exits 130, the conventional
// fatal-signal status; any other failure exits 1.
func abort(sinks *obs.Sinks, phases obs.PhaseReportOpts, err error) {
	kind, code := obs.EventRunFailed, 1
	if errors.Is(err, core.ErrInterrupted) {
		kind, code = obs.EventInterrupted, 130
	}
	sinks.Flight.Record(-1, kind, err.Error(), 0)
	if ferr := sinks.Flush(os.Stderr, phases); ferr != nil {
		fmt.Fprintln(os.Stderr, "svsim: obs:", ferr)
	}
	sinks.Close() //nolint:errcheck // exiting
	fmt.Fprintln(os.Stderr, "svsim:", err)
	os.Exit(code)
}

// report prints the final state's non-negligible amplitudes when asked
// and the shot histogram, most frequent first.
func report(st *statevec.State, counts map[string]int, shots int, printState bool) {
	if printState && st != nil {
		fmt.Println("state   :")
		for i := 0; i < st.Dim; i++ {
			if p := st.Probability(i); p > 1e-9 {
				fmt.Printf("  |%0*b>  amp=%.6f%+.6fi  p=%.6f\n",
					st.N, i, st.Re[i], st.Im[i], p)
			}
		}
	}
	if shots > 0 {
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if counts[keys[i]] != counts[keys[j]] {
				return counts[keys[i]] > counts[keys[j]]
			}
			return keys[i] < keys[j]
		})
		fmt.Printf("samples : %d shots\n", shots)
		for i, k := range keys {
			if i >= 16 {
				fmt.Printf("  ... %d more outcomes\n", len(keys)-16)
				break
			}
			fmt.Printf("  |%s>  %d\n", k, counts[k])
		}
	}
}

// printCompile reports the compile pipeline's work when the fusion pass
// was requested or a fresh run folded a classical prefix (otherwise the
// pipeline is pass-through and the line would be noise).
func printCompile(cst compile.Stats, fuse, freshStart bool) {
	folded := freshStart && cst.PrefixGates+cst.PrefixRemaps > 0
	if !fuse && !folded {
		return
	}
	source := "fresh"
	if cst.CacheHit {
		source = "cache hit"
	}
	line := "compile : "
	if fuse {
		line += fmt.Sprintf("fuse %d->%d gates (%d fused 1q runs, %d cancelled, %d gadgets of %d gates), %d diagonal runs (%d through CX), ",
			cst.Fusion.InputGates, cst.Fusion.OutputGates,
			cst.Fusion.FusedRuns, cst.Fusion.Cancellations,
			cst.Gadgets, cst.GadgetGates, cst.DiagRuns, cst.ThroughCX)
	}
	if folded {
		line += fmt.Sprintf("prefix %d gates + %d remaps folded, ", cst.PrefixGates, cst.PrefixRemaps)
	}
	fmt.Printf("%s%s, %v\n", line, source, time.Duration(cst.TotalNS))
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "svsim:", err)
	os.Exit(1)
}
