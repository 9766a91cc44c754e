// Package perf is svperf, the repo's wall-clock benchmark: six workloads,
// five end-to-end metrics printed by the untraced run, their timings
// adjusted for the speed of the shared host at the moment they were taken,
// and a traced run that records spans around the benchmark's own calls
// into each layer, runs the layers' micro-probes and prints the per-layer
// metrics.
//
// The lists in this file are the single definition of what the benchmark
// measures; BENCHMARK.json at the repo root repeats them for the driver
// and the self-test asserts the two agree.
package perf

// Def names one metric: its unit and which direction is better.
type Def struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; zero for
	// per-layer metrics, which carry no bound.
	Bound float64 `json:"bound,omitempty"`
}

// WorkloadDef names one workload and why it is in the benchmark.
type WorkloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Workloads lists the six workloads in the order a full set runs them.
var Workloads = []WorkloadDef{
	{"qft22_single", "plain single-threaded out-of-L2 baseline: QFT(22) per-gate on the single backend, statevec per-gate kernels are ~all of the wall"},
	{"qft22_tiled_mt", "same circuit through the other statevec path: tile kernels + Pool.ForTiles on threaded(2), so a kernel change that helps one path and hurts the other shows"},
	{"rqc20_pgas_naive", "the paper's design point: RQC(20,16) on scale-out(2) with fine-grained one-sided Get/Put and a barrier per global-qubit gate"},
	{"rqc20_pgas_lazy", "pgas used the other way: few bulk PutV exchanges + pack/unpack + group barriers; fewer remote bytes than naive yet slower on the clock"},
	{"vqe_sweep", "128 UCCSD(10) parameter points through batch.Runner and its shared plan cache: L1-resident state, so compile, fusion re-binding and dispatch dominate"},
	{"svc_mixed", "closed loop of 2 clients against an in-process serve.Server: submit, queue, parse, plan cache and run of small circuits, preemption checkpoints off (their fsyncs follow the host's disk)"},
}

const (
	lower  = "lower"
	higher = "higher"
)

// EndToEnd lists the metrics every untraced run prints. All of them are
// defined on every workload and none can be zero (a failed op shows in
// the result's failed/attempted pair, which the driver compares itself).
// The four timings are adjusted for the host's speed at the moment they
// were taken (calib.go).
//
// The bounds are the widest the driver allows, wider than ISSUE 13's
// 10-15 %: the driver refuses a benchmark whose quartile spread over ten
// runs, or whose shift between the medians of two sets of ten, exceeds the
// bound, and asks for spreads under a third of it. The adjusted timings of
// ten runs spread 2-6 % on this 2-vCPU VM while it is calm; unadjusted, in
// its slow phases, run_s has spread 25-59 %, and the adjustment takes out
// a half to three quarters of that, not all. See "Host-speed adjustment"
// in the README.
var EndToEnd = []Def{
	{"run_s", "s", lower, 0.25},
	{"setup_s", "s", lower, 0.25},
	{"peak_rss_mb", "MiB", lower, 0.25},
	{"job_p50_ms", "ms", lower, 0.25},
	{"job_p95_ms", "ms", lower, 0.25},
}

// kernelKinds and kernelPos span the statevec per-gate probes.
var (
	kernelKinds = []string{"h", "x", "u1", "u3", "cx", "cu1"}
	kernelPos   = []string{"lo", "mid", "hi"}
)

// PerLayer lists the metrics every traced run prints. The first block is
// derived from the traced workload itself (a count of 0 means the layer
// is not on that workload's path); the probes after it are
// workload-independent measurements of one public function each.
var PerLayer = buildPerLayer()

func buildPerLayer() []Def {
	d := []Def{
		{Name: "trace_overhead_pct", Unit: "%", Better: lower},
		// core: what Backend.Run reported about the traced reps.
		{Name: "core.compile_s", Unit: "s", Better: lower},
		{Name: "core.exec_s", Unit: "s", Better: lower},
		{Name: "core.other_s", Unit: "s", Better: lower},
		{Name: "core.gates", Unit: "count", Better: lower},
		{Name: "core.bytes_touched_mb", Unit: "MB", Better: lower},
		{Name: "core.eff_gbps", Unit: "GB/s", Better: higher},
		{Name: "core.tile_sweeps", Unit: "count", Better: lower},
		{Name: "core.speedup_vs_single", Unit: "ratio", Better: higher},
		{Name: "core.tiled_vs_single", Unit: "ratio", Better: lower},
		{Name: "core.compute_share", Unit: "ratio", Better: higher},
		{Name: "core.pack_share", Unit: "ratio", Better: lower},
		{Name: "core.wire_share", Unit: "ratio", Better: lower},
		{Name: "core.unpack_share", Unit: "ratio", Better: lower},
		{Name: "core.barrier_share", Unit: "ratio", Better: lower},
		{Name: "core.load_imbalance_pct", Unit: "%", Better: lower},
		{Name: "core.exec_share", Unit: "ratio", Better: higher},
		{Name: "obs.trace_overhead_pct", Unit: "%", Better: lower},
		{Name: "pgas.remote_msgs", Unit: "count", Better: lower},
		{Name: "pgas.remote_mb", Unit: "MB", Better: lower},
		{Name: "pgas.barriers", Unit: "count", Better: lower},
		{Name: "mpibase.run_s", Unit: "s", Better: lower},
		{Name: "mpibase.remap_run_s", Unit: "s", Better: lower},
		{Name: "compile.remaps", Unit: "count", Better: lower},
		{Name: "compile.hit_ratio", Unit: "ratio", Better: higher},
		{Name: "compile.share", Unit: "ratio", Better: lower},
		{Name: "batch.points_per_s", Unit: "1/s", Better: higher},
		{Name: "circuit.build_ms", Unit: "ms", Better: lower},
		{Name: "serve.submit_us", Unit: "us", Better: lower},
		{Name: "serve.queue_wait_ms", Unit: "ms", Better: lower},
		{Name: "serve.run_ms", Unit: "ms", Better: lower},
		{Name: "serve.fetch_ms", Unit: "ms", Better: lower},
		{Name: "serve.polls_per_job", Unit: "count", Better: lower},
		{Name: "serve.rejected", Unit: "count", Better: lower},
		{Name: "serve.cache_cross_hits", Unit: "count", Better: higher},
		{Name: "serve.overhead_ratio", Unit: "ratio", Better: lower},
		{Name: "ckpt.run_ratio", Unit: "ratio", Better: lower},
		{Name: "perfmodel.est_rel_err_p90", Unit: "ratio", Better: lower},
		// Probes.
		{Name: "statevec.roofline_rw_gbps", Unit: "GB/s", Better: higher},
		{Name: "statevec.n22.roofline_pct", Unit: "%", Better: higher},
	}
	for _, k := range kernelKinds {
		for _, p := range kernelPos {
			d = append(d, Def{Name: "statevec." + k + "_" + p + "_n22.ns_per_amp", Unit: "ns", Better: lower})
		}
	}
	for _, k := range kernelKinds {
		d = append(d, Def{Name: "statevec." + k + "_mid_n14.ns_per_amp", Unit: "ns", Better: lower})
	}
	return append(d,
		Def{Name: "statevec.pool_h_mid_n22_w1.ns_per_amp", Unit: "ns", Better: lower},
		Def{Name: "statevec.pool_h_mid_n22_w2.ns_per_amp", Unit: "ns", Better: lower},
		Def{Name: "statevec.tile_h_lo_n22.ns_per_amp", Unit: "ns", Better: lower},
		Def{Name: "statevec.pool_fortiles_empty_us", Unit: "us", Better: lower},
		Def{Name: "pgas.get_ns", Unit: "ns", Better: lower},
		Def{Name: "pgas.put_ns", Unit: "ns", Better: lower},
		Def{Name: "pgas.getv_gbps", Unit: "GB/s", Better: higher},
		Def{Name: "pgas.putv_gbps", Unit: "GB/s", Better: higher},
		Def{Name: "pgas.barrier_us", Unit: "us", Better: lower},
		Def{Name: "pgas.group_barrier_us", Unit: "us", Better: lower},
		Def{Name: "sched.build_ms", Unit: "ms", Better: lower},
		Def{Name: "compile.cold_ms", Unit: "ms", Better: lower},
		Def{Name: "compile.hit_us", Unit: "us", Better: lower},
		Def{Name: "fusion.optimize_ms", Unit: "ms", Better: lower},
		Def{Name: "ckpt.capture_full_ms", Unit: "ms", Better: lower},
		Def{Name: "ckpt.write_shard_mbps", Unit: "MB/s", Better: higher},
		Def{Name: "ckpt.read_shard_mbps", Unit: "MB/s", Better: higher},
		Def{Name: "qasm.parse_us_per_gate", Unit: "us", Better: lower},
	)
}

// Sizes scales every workload and probe. Full is what BENCHMARK.json
// measures; Toy keeps the same code paths at sizes the self-test can run
// in seconds (metric names keep their full-size labels).
type Sizes struct {
	QFTQubits    int // qft22_*
	RQCQubits    int // rqc20_*
	RQCLayers    int
	UCCSDQubits  int // vqe_sweep
	Points       int
	SvcCircuits  int // svc_mixed: how many of its 9 circuits (smallest first) make a deck
	KernelQubits int // statevec out-of-cache probes ("n22")
	CacheQubits  int // statevec in-cache probes ("n14")
	ShardQubits  int // ckpt probe state (20 = 16 MiB)
	ProbeReps    int
	CalibQubits  int // the host-speed memory probe's array (22 = 64 MiB)
}

// Full is the benchmark; Toy is the self-test.
var (
	Full = Sizes{QFTQubits: 22, RQCQubits: 20, RQCLayers: 16, UCCSDQubits: 10, Points: 128, SvcCircuits: 9,
		KernelQubits: 22, CacheQubits: 14, ShardQubits: 20, ProbeReps: 3, CalibQubits: 22}
	Toy = Sizes{QFTQubits: 10, RQCQubits: 10, RQCLayers: 4, UCCSDQubits: 4, Points: 8, SvcCircuits: 1,
		KernelQubits: 12, CacheQubits: 8, ShardQubits: 10, ProbeReps: 1, CalibQubits: 12}
)
