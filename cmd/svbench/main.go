// Command svbench regenerates the paper's evaluation: every table and
// figure of §4-§5 is reproduced as a text table (modeled figures from
// measured traces, Fig. 14 and the §5 case studies measured on this
// host). Run with -exp all to reproduce the full evaluation, or name a
// single experiment.
//
// With -json FILE (optionally narrowed by -workload/-backend/-pes) it
// instead runs measured benchmark workloads and writes machine-readable
// BENCH records, so the performance trajectory of this repo can be
// tracked across commits:
//
//	svbench -json BENCH_baseline.json
//	svbench -workload qft_n15 -backend scale-out -pes 8 -json - -obs-dir obs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"svsim/internal/batch"
	"svsim/internal/circuit"
	"svsim/internal/cliutil"
	"svsim/internal/compile"
	"svsim/internal/core"
	"svsim/internal/figures"
	"svsim/internal/ham"
	"svsim/internal/obs"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
	"svsim/internal/statevec"
	"svsim/internal/vqa"
)

var experiments = []struct {
	name string
	desc string
	run  func() *figures.Table
}{
	{"table3", "evaluation platforms", figures.Table3},
	{"table4", "workload suite vs paper counts", figures.Table4},
	{"fig6", "single-device latency across platforms", figures.Fig6},
	{"fig6-abs", "single-device absolute latency (ms)", figures.Fig6Absolute},
	{"fig7", "CPU scale-up (P8276M, AVX512)", figures.Fig7},
	{"fig8", "Xeon Phi scale-up", figures.Fig8},
	{"fig9", "V100 DGX-2 scale-up", figures.Fig9},
	{"fig10", "DGX-A100 scale-up", figures.Fig10},
	{"fig11", "MI100 workstation scale-up", figures.Fig11},
	{"fig12", "Summit Power9 OpenSHMEM scale-out", figures.Fig12},
	{"fig13", "Summit V100 NVSHMEM scale-out", figures.Fig13},
	{"fig14", "measured comparison vs baseline simulators", figures.Fig14},
	{"fig16", "H2 VQE energy trajectory (measured)", figures.Fig16},
	{"fig17", "VQE-UCCSD gates vs qubits", figures.Fig17},
	{"qnn", "power-grid QNN case study (measured)", figures.QNNStudy},
	{"headline", "24-qubit VQE on 16 GPUs (modeled)", figures.Headline},
	{"comm", "PGAS vs MPI communication structure", func() *figures.Table { return figures.CommComparison(8) }},
	{"mem", "state-vector memory wall (2.1)", figures.MemTable},
}

func main() {
	exp := flag.String("exp", "all", "experiment id or 'all' or 'list'")
	format := flag.String("format", "text", "output format: text | csv")
	jsonFile := flag.String("json", "", "run measured bench workloads and write BENCH records as JSON to FILE ('-' for stdout)")
	workload := flag.String("workload", "", "bench a single named workload instead of the default suite")
	backendName := flag.String("backend", "single", "backend for -workload: "+strings.Join(core.BackendNames(nil), " | "))
	pes := flag.Int("pes", 1, "device/PE count for -workload on distributed backends")
	ppn := flag.Int("ppn", 0, "PEs per node for -workload: group the fleet into nodes and run remaps as two-level exchanges (0 = flat)")
	coalesced := flag.Bool("coalesced", false, "coalesced bulk transfers for -workload on the scale-out backend")
	fuse := flag.Bool("fuse", false, "apply the compile pipeline's gate-fusion pass for -workload")
	tile := flag.Bool("tile", false, "cache-blocked tiled execution for -workload on the single-node backends")
	schedName := flag.String("sched", "naive", "gate schedule for -workload on distributed backends: naive | lazy")
	obsDir := flag.String("obs-dir", "", "write the bench runs' observability artifacts (trace.json, metrics.om, phases.json, flight.jsonl) into DIR")
	obsListen := flag.String("obs-listen", "", "serve /metrics, /debug/flight and /debug/pprof on ADDR while benching")
	ckptEvery := flag.Int("checkpoint-every", 0, "checkpoint the bench runs every N schedule steps, to measure checkpoint overhead (0 = off; needs -checkpoint-dir)")
	ckptDir := flag.String("checkpoint-dir", "", "checkpoint base directory for -checkpoint-every")
	ckptFullEvery := flag.Int("checkpoint-full-every", 0, "force every N-th checkpoint full and write deltas in between (0 = all full)")
	flag.Parse()

	if *jsonFile != "" || *workload != "" {
		policy, err := sched.ParsePolicy(*schedName)
		if err != nil {
			fatalf("%v", err)
		}
		if err := cliutil.ValidatePEs(*pes); err != nil {
			fatalf("%v", err)
		}
		// Validate the flag pairing and that the directories are writable
		// before burning bench time.
		if err := cliutil.ValidateCheckpointing(*ckptEvery, *ckptFullEvery, *ckptDir, "", 0); err != nil {
			fatalf("%v", err)
		}
		if *obsDir != "" {
			if err := cliutil.EnsureWritableDir("-obs-dir", *obsDir); err != nil {
				fatalf("%v", err)
			}
		}
		if err := (sched.Topology{PEsPerNode: *ppn}).Validate(); err != nil {
			fatalf("%v", err)
		}
		if err := cliutil.ValidateCoalesced(*coalesced && *workload != "", *backendName); err != nil {
			fatalf("%v", err)
		}
		ck := ckptOpts{every: *ckptEvery, dir: *ckptDir, fullEvery: *ckptFullEvery}
		runBenchMode(*jsonFile, *workload, *backendName, *pes, *ppn, *coalesced, *fuse, *tile, policy, *obsDir, *obsListen, ck)
		return
	}

	render := func(t *figures.Table) string {
		if *format == "csv" {
			return t.CSV()
		}
		return t.Format()
	}

	switch *exp {
	case "list":
		for _, e := range experiments {
			fmt.Printf("%-9s %s\n", e.name, e.desc)
		}
		return
	case "all":
		for _, e := range experiments {
			fmt.Println(render(e.run()))
		}
		return
	}
	for _, e := range experiments {
		if e.name == *exp {
			fmt.Println(render(e.run()))
			return
		}
	}
	fmt.Fprintf(os.Stderr, "svbench: unknown experiment %q; known: %s\n",
		*exp, strings.Join(names(), ", "))
	os.Exit(1)
}

func names() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.name
	}
	return out
}

// benchRecord is the machine-readable result of one measured workload
// run; one JSON array of these per -json file, schema-tagged so future
// fields can be added compatibly. GitCommit ties a record file to the
// tree it measured, so per-commit BENCH artifacts can be lined up into
// a trajectory (see benchdiff -html) without trusting file names.
type benchRecord struct {
	Schema        string `json:"schema"`
	SchemaVersion int    `json:"schema_version"`
	GitCommit     string `json:"git_commit,omitempty"`
	UnixNS        int64  `json:"unix_ns"`
	Workload      string `json:"workload"`
	Backend       string `json:"backend"`
	PEs           int    `json:"pes"`
	Coalesced     bool   `json:"coalesced,omitempty"`
	Sched         string `json:"sched,omitempty"`
	Tile          bool   `json:"tile,omitempty"`
	// PPN is the configured PEs-per-node topology (0 = flat fleet).
	PPN          int   `json:"ppn,omitempty"`
	Qubits       int   `json:"qubits"`
	Gates        int   `json:"gates"`
	ElapsedNS    int64 `json:"elapsed_ns"`
	KernelGates  int64 `json:"kernel_gates"`
	AmpsTouched  int64 `json:"amps_touched"`
	BytesTouched int64 `json:"bytes_touched"`
	// Sweeps counts full passes over the state vector (one per gate on
	// the per-gate path, one per tiled group under -tile); GatesPerByte is
	// kernel gates divided by bytes touched, the arithmetic-intensity
	// figure cache-blocked execution raises.
	Sweeps       int64   `json:"sweeps,omitempty"`
	GatesPerByte float64 `json:"gates_per_byte,omitempty"`
	// DiagRuns counts the stretches of consecutive diagonal gates the
	// plan executes as one pass each, MergedGates the gates inside them
	// (both per plan, not per PE).
	DiagRuns        int   `json:"diag_runs,omitempty"`
	MergedGates     int   `json:"merged_gates,omitempty"`
	CommLocalBytes  int64 `json:"comm_local_bytes"`
	CommRemoteBytes int64 `json:"comm_remote_bytes"`
	CommRemoteMsgs  int64 `json:"comm_remote_msgs"`
	Barriers        int64 `json:"barriers"`
	// Two-level exchange trajectory (topology runs only): the measured
	// intra-node and inter-node one-sided volume, the number of exchange
	// phases executed, and the analytic inter-node volume the FLAT
	// realization would have moved under the same node grouping — the
	// denominator of the hierarchical remap's headline reduction.
	IntraBytes     int64  `json:"intra_bytes,omitempty"`
	InterBytes     int64  `json:"inter_bytes,omitempty"`
	ExchangePhases int64  `json:"exchange_phases,omitempty"`
	FlatInterBytes int64  `json:"flat_inter_bytes,omitempty"`
	HeapAllocBytes uint64 `json:"heap_alloc_bytes,omitempty"`
	// Checkpoint activity, present only when -checkpoint-every is on, so
	// baseline files written without checkpointing are unaffected.
	// CkptSeconds is the compute-path stall (core.Result.Ckpt.NS); the
	// background writer's time is not in it.
	CkptCount   int64   `json:"ckpt_count,omitempty"`
	CkptBytes   int64   `json:"ckpt_bytes,omitempty"`
	CkptSeconds float64 `json:"ckpt_seconds,omitempty"`
	// Compile-pipeline activity: fusion results, schedule remap count,
	// compile latency, and plan-cache outcome. FusedGates and Remaps are
	// deterministic for a fixed workload; CompileNS is wall time and
	// BindNS the part of it spent binding parameters into cached plans
	// (both summed over the points of a sweep record).
	Fuse            bool  `json:"fuse,omitempty"`
	FusedGates      int   `json:"fused_gates,omitempty"`
	Remaps          int64 `json:"remaps,omitempty"`
	CompileNS       int64 `json:"compile_ns,omitempty"`
	BindNS          int64 `json:"bind_ns,omitempty"`
	PlanCacheHit    bool  `json:"plan_cache_hit,omitempty"`
	PlanCacheHits   int64 `json:"plan_cache_hits,omitempty"`
	PlanCacheMisses int64 `json:"plan_cache_misses,omitempty"`
}

// benchSchema names the record family; benchSchemaVersion counts its
// compatible revisions (v2 added schema_version and git_commit; v3 added
// tile, sweeps, and gates_per_byte; v4 added ppn, intra_bytes,
// inter_bytes, exchange_phases, and flat_inter_bytes for the two-level
// remap trajectory; v5 added ckpt_mode and ckpt_stall_seconds for a
// sync-vs-async checkpoint stall pair, dropped with the synchronous
// protocol — no default-suite record ever carried them; v6 added
// diag_runs and merged_gates).
const (
	benchSchema        = "svsim-bench/v6"
	benchSchemaVersion = 6
)

// buildCommit identifies the measured tree: the VCS revision the Go
// toolchain stamped into the binary when available, otherwise git itself
// (covers `go run`, whose build omits VCS stamping), otherwise "" for
// exported tarballs with no .git.
func buildCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			return rev + dirty
		}
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

type benchSpec struct {
	workload, backend string
	pes               int
	coalesced         bool
	fuse              bool
	sched             sched.Policy
	tile              bool
	// ppn groups the fleet into nodes of ppn PEs and runs the remaps as
	// hierarchical two-level exchanges (0 = flat).
	ppn int
}

// defaultBenchSuite is the standing perf-trajectory suite: one
// representative workload per backend class (plus the lazy-scheduled
// scale-out runs whose remote-byte trajectory CI guards, and their fused
// variants whose fused-gate/remap counts CI also guards), small enough
// to run in CI.
var defaultBenchSuite = []benchSpec{
	{"qft_n15", "single", 1, false, false, sched.Naive, false, 0},
	{"qft_n15", "single", 1, false, true, sched.Naive, false, 0},
	{"qft_n15", "single", 1, false, false, sched.Naive, true, 0},
	{"qft_n15", "single", 1, false, true, sched.Naive, true, 0},
	{"qft_n15", "threaded", 4, false, false, sched.Naive, false, 0},
	{"qft_n15", "threaded", 4, false, false, sched.Naive, true, 0},
	{"qft_n15", "scale-up", 4, false, false, sched.Naive, false, 0},
	{"qft_n15", "scale-out", 8, true, false, sched.Naive, false, 0},
	{"qft_n15", "scale-out", 8, false, false, sched.Lazy, false, 0},
	{"qft_n15", "scale-out", 8, false, true, sched.Lazy, false, 0},
	// The two-level remap trajectory: same lazy scale-out workloads on a
	// 2-node (ppn=4) fleet, whose inter_bytes CI guards against regression.
	{"qft_n15", "scale-out", 8, false, false, sched.Lazy, false, 4},
	{"bv_n14", "scale-out", 4, true, false, sched.Naive, false, 0},
	{"bv_n14", "scale-out", 4, false, false, sched.Lazy, false, 0},
	{"bv_n14", "scale-out", 4, false, true, sched.Lazy, false, 0},
	{"bv_n14", "scale-out", 4, false, false, sched.Lazy, false, 2},
	{"ghz_state", "single", 1, false, false, sched.Naive, false, 0},
}

// ckptOpts bundles the checkpoint configuration of a bench invocation.
type ckptOpts struct {
	every     int
	dir       string
	fullEvery int
}

func runBenchMode(jsonFile, workload, backend string, pes, ppn int, coalesced, fuse, tile bool, policy sched.Policy, obsDir, obsListen string, ck ckptOpts) {
	sinks, err := obs.Open(obsDir, obsListen)
	if err != nil {
		fatalf("%v", err)
	}
	defer sinks.Close() //nolint:errcheck
	if sinks.Addr != "" {
		fmt.Fprintf(os.Stderr, "svbench: obs serving http://%s/metrics, /debug/flight, /debug/pprof/\n", sinks.Addr)
	}

	suite := defaultBenchSuite
	// The phase report splits the summed run loops of the traced suite
	// entries (the VQE sweep below runs untraced).
	phases := obs.PhaseReportOpts{Backend: "suite"}
	if workload != "" {
		suite = []benchSpec{{workload, backend, pes, coalesced, fuse, policy, tile, ppn}}
		phases = obs.PhaseReportOpts{Backend: backend, Workload: workload}
	}
	// One plan cache for the whole bench run, as a long-lived driver
	// would hold it; suite entries all differ in shape or config, so the
	// per-record hit flag stays deterministically false while the VQE
	// sweep below exercises the hit path.
	plans := compile.NewCache(compile.DefaultCacheSize)
	records := make([]benchRecord, 0, len(suite)+1)
	for i, spec := range suite {
		run := ck
		if run.every > 0 {
			// One subdirectory per suite entry so checkpoints of different
			// configurations never collide.
			run.dir = filepath.Join(ck.dir, fmt.Sprintf("%02d-%s-%s", i, spec.workload, spec.backend))
		}
		start := time.Now()
		rec, err := runBenchSpec(spec, plans, sinks, run)
		if err != nil {
			phases.WallNS += time.Since(start).Nanoseconds()
			sinks.Flight.Record(-1, obs.EventRunFailed, err.Error(), 0)
			if ferr := sinks.Flush(os.Stderr, phases); ferr != nil {
				fmt.Fprintln(os.Stderr, "svbench: obs:", ferr)
			}
			fatalf("%s on %s: %v", spec.workload, spec.backend, err)
		}
		phases.PEs = max(phases.PEs, rec.PEs)
		phases.WallNS += rec.ElapsedNS
		phases.CompileNS += rec.CompileNS
		records = append(records, *rec)
		fmt.Fprintf(os.Stderr, "svbench: %-12s %-9s pes=%-2d %12d ns  remote=%dB\n",
			rec.Workload, rec.Backend, rec.PEs, rec.ElapsedNS, rec.CommRemoteBytes)
	}
	if workload == "" {
		// The plan-cache trajectory workload: a VQE parameter sweep over a
		// fixed-shape ansatz, where every point after the first re-binds
		// the cached plan.
		rec, err := runVQESweep()
		if err != nil {
			fatalf("vqe sweep: %v", err)
		}
		records = append(records, *rec)
		fmt.Fprintf(os.Stderr, "svbench: %-12s %-9s pes=%-2d %12d ns  plan-cache=%d/%d\n",
			rec.Workload, rec.Backend, rec.PEs, rec.ElapsedNS, rec.PlanCacheHits, rec.PlanCacheHits+rec.PlanCacheMisses)
	}

	commit := buildCommit()
	for i := range records {
		records[i].GitCommit = commit
	}

	if jsonFile != "" {
		out, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			fatalf("encode: %v", err)
		}
		out = append(out, '\n')
		if jsonFile == "-" {
			os.Stdout.Write(out)
		} else if err := os.WriteFile(jsonFile, out, 0o644); err != nil {
			fatalf("write %s: %v", jsonFile, err)
		}
	}
	if err := sinks.Flush(os.Stderr, phases); err != nil {
		fatalf("%v", err)
	}
}

func runBenchSpec(spec benchSpec, plans *compile.Cache, sinks *obs.Sinks, ck ckptOpts) (*benchRecord, error) {
	e, err := qasmbench.ByName(spec.workload)
	if err != nil {
		return nil, err
	}
	c := e.Build()
	cfg := core.Config{
		Seed: 1, Style: statevec.Vectorized, PEs: spec.pes,
		Coalesced: spec.coalesced, Fuse: spec.fuse, Sched: spec.sched,
		Tile: spec.tile, Topology: sched.Topology{PEsPerNode: spec.ppn},
		Plans: plans, Trace: sinks.Tracer, Metrics: sinks.Metrics, Flight: sinks.Flight,
		CheckpointEvery: ck.every, CheckpointDir: ck.dir, CheckpointFullEvery: ck.fullEvery,
	}
	backend, err := core.NewBackend(spec.backend, cfg)
	if err != nil {
		return nil, err
	}
	res, err := backend.Run(c)
	if err != nil {
		return nil, err
	}
	rec := &benchRecord{
		Schema:          benchSchema,
		SchemaVersion:   benchSchemaVersion,
		UnixNS:          time.Now().UnixNano(),
		Workload:        spec.workload,
		Backend:         res.Backend,
		PEs:             res.PEs,
		Coalesced:       spec.coalesced,
		Sched:           string(spec.sched),
		Tile:            spec.tile,
		Qubits:          c.NumQubits,
		Gates:           c.NumGates(),
		ElapsedNS:       res.Elapsed.Nanoseconds(),
		KernelGates:     res.SV.Gates,
		AmpsTouched:     res.SV.AmpsTouched,
		BytesTouched:    res.SV.BytesTouched,
		Sweeps:          res.SV.Sweeps,
		CommLocalBytes:  res.Comm.LocalBytes,
		CommRemoteBytes: res.Comm.RemoteBytes,
		CommRemoteMsgs:  res.Comm.RemoteMessages(),
		Barriers:        res.Comm.Barriers,
	}
	if rec.BytesTouched > 0 {
		rec.GatesPerByte = float64(rec.KernelGates) / float64(rec.BytesTouched)
	}
	if res.Mem != nil {
		rec.HeapAllocBytes = res.Mem.HeapAllocBytes
	}
	rec.CkptCount = res.Ckpt.Count
	rec.CkptBytes = res.Ckpt.Bytes
	rec.CkptSeconds = float64(res.Ckpt.NS) / 1e9
	rec.Fuse = spec.fuse
	if spec.fuse {
		rec.FusedGates = res.Compile.Fusion.OutputGates
	}
	rec.Remaps = int64(res.Compile.Remaps)
	rec.DiagRuns, rec.MergedGates = res.Compile.DiagRuns, res.Compile.Merged
	rec.CompileNS = res.Compile.TotalNS
	rec.BindNS = res.Compile.BindNS
	rec.PlanCacheHit = res.Compile.CacheHit
	if spec.ppn > 0 {
		rec.PPN = spec.ppn
		rec.IntraBytes = res.IntraBytes
		rec.InterBytes = res.InterBytes
		rec.ExchangePhases = res.ExchangePhases
		fib, err := flatInterBytes(c, spec, plans)
		if err != nil {
			return nil, err
		}
		rec.FlatInterBytes = fib
	}
	return rec, nil
}

// flatInterBytes prices the FLAT realization of the spec's schedule
// under its node grouping: the inter-node volume the run would have
// moved had every remap stayed a single fleet-wide all-to-all. The
// classification is analytic (the geometry of each remap's whole swap
// list + node ids) and reads the run's own plan — a topology never
// changes the step list — so the baseline costs a cache hit, neither a
// flat compile nor a second run.
func flatInterBytes(c *circuit.Circuit, spec benchSpec, plans *compile.Cache) (int64, error) {
	topo := sched.Topology{PEsPerNode: spec.ppn}
	cp, _, err := compile.Compile(c, compile.Config{
		Fuse: spec.fuse, Sched: spec.sched, PEs: spec.pes, Topo: topo, Cache: plans,
	})
	if err != nil {
		return 0, err
	}
	var inter int64
	for _, st := range cp.Plan.Steps {
		if st.Kind != sched.StepRemap {
			continue
		}
		_, ib, _ := sched.NewExchange(st.Swaps, cp.NumQubits, cp.LocalBits, cp.PEs).NodeSplit(cp.PEs, topo)
		inter += ib
	}
	return inter, nil
}

// vqeSweepPoints sizes the plan-cache trajectory workload; with one
// compile and points-1 re-binds, the expected record is exactly
// plan_cache_hits = vqeSweepPoints-1, plan_cache_misses = 1.
const vqeSweepPoints = 64

// runVQESweep measures a batched EnergySweep of the H2 UCCSD ansatz at
// vqeSweepPoints parameter points sharing one plan cache.
func runVQESweep() (*benchRecord, error) {
	h := ham.H2()
	np := vqa.H2NumParams()
	params := make([][]float64, vqeSweepPoints)
	for i := range params {
		p := make([]float64, np)
		for j := range p {
			// Deterministic, generic (non-degenerate) angles.
			p[j] = 0.15 + 0.045*float64(i) + 0.3*float64(j)
		}
		params[i] = p
	}
	c := vqa.H2Ansatz(params[0])
	var compileNS, bindNS atomic.Int64
	runner := batch.New(4, core.Config{Seed: 1, Style: statevec.Vectorized, Fuse: true}).
		WithBackendFactory(func(cfg core.Config) core.Backend {
			return compileTally{core.NewSingleDevice(cfg), &compileNS, &bindNS}
		})
	start := time.Now()
	if _, err := runner.EnergySweep(h, vqa.H2Ansatz, params); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	cs := runner.PlanCache().Stats()
	return &benchRecord{
		Schema:          benchSchema,
		SchemaVersion:   benchSchemaVersion,
		UnixNS:          time.Now().UnixNano(),
		Workload:        fmt.Sprintf("vqe_h2_sweep%d", vqeSweepPoints),
		Backend:         "batch-single",
		PEs:             1,
		Fuse:            true,
		Qubits:          c.NumQubits,
		Gates:           c.NumGates(),
		ElapsedNS:       elapsed.Nanoseconds(),
		CompileNS:       compileNS.Load(),
		BindNS:          bindNS.Load(),
		PlanCacheHits:   cs.Hits,
		PlanCacheMisses: cs.Misses,
	}, nil
}

// compileTally sums the compile and bind time of every point a sweep's
// workers run (EnergySweep returns energies, not per-point results). The
// same two numbers are obs counters, but a Metrics in the sweep's
// core.Config also times every gate kernel and resolves the per-kind
// histograms on each Run: the 4-qubit record's elapsed_ns went from 4.0
// to 11.7 ms when read that way, so the tally stays outside the runtime.
type compileTally struct {
	core.Backend
	compileNS, bindNS *atomic.Int64
}

func (b compileTally) Run(c *circuit.Circuit) (*core.Result, error) {
	res, err := b.Backend.Run(c)
	if err == nil {
		b.compileNS.Add(res.Compile.TotalNS)
		b.bindNS.Add(res.Compile.BindNS)
	}
	return res, err
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "svbench: "+format+"\n", args...)
	os.Exit(1)
}
