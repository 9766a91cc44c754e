// Package obs is the observability layer of the simulator: a low-overhead
// per-gate tracer (Chrome trace-event JSON, one track per PE, loadable in
// Perfetto or chrome://tracing), a metrics registry of counters, gauges,
// and fixed-bucket histograms whose one export format is the OpenMetrics
// text exposition (openmetrics.go), phase-attribution reports that split
// per-PE wall time into compile/compute/pack/wire/unpack/barrier/
// checkpoint (phases.go), and a bounded flight recorder of structured
// runtime events (flight.go).
//
// A command reaches all of it through one Sinks (sinks.go), opened from
// a directory and a listen address: the directory receives trace.json,
// metrics.om, phases.json and flight.jsonl when the run ends, on the
// clean and the abort exits alike, all written by the one WriteFile; the
// listener serves Mux (server.go) — /metrics, /debug/flight, and
// net/http/pprof under /debug/pprof/, which every listener serves.
//
// The design contract with the execution backends is "nil means off": a
// nil *Tracer, *Metrics, *Track, *Counter, *Gauge, *Histogram, or
// *FlightRecorder is a valid receiver on every recording method and does
// nothing, so hot loops carry only a branch-predictable nil check when
// observability is disabled.
// All recording methods on non-nil receivers are safe for concurrent use
// except Track.SpanAt, which is owned by one PE goroutine by construction
// (each PE records only onto its own track).
package obs

// Canonical metric names used across the backends. Per-gate-kind
// histograms append "." plus the lower-case gate mnemonic.
const (
	// MetricGateKernelNS is the per-kind gate kernel latency histogram
	// family, in nanoseconds: "gate_kernel_ns.h", "gate_kernel_ns.cx", ...
	MetricGateKernelNS = "gate_kernel_ns"
	// MetricPutBytes is the one-sided put size distribution (pgas).
	MetricPutBytes = "put_bytes"
	// MetricGetBytes is the one-sided get size distribution (pgas).
	MetricGetBytes = "get_bytes"
	// MetricBarrierWaitNS is the barrier wait-time distribution.
	MetricBarrierWaitNS = "barrier_wait_ns"
	// MetricMsgBytes is the two-sided message size distribution (mpi backend).
	MetricMsgBytes = "msg_bytes"
	// MetricRemapBytes is the per-PE remote byte volume of each lazy
	// qubit-remap exchange (sched block boundary).
	MetricRemapBytes = "remap_exchange_bytes"
	// MetricRemapCount counts remap exchanges executed.
	MetricRemapCount = "remap_count"
	// MetricRemoteBytes accumulates one-sided remote traffic volume (pgas).
	MetricRemoteBytes = "pgas_remote_bytes"
	// MetricLocalBytes accumulates one-sided local traffic volume (pgas).
	MetricLocalBytes = "pgas_local_bytes"
	// MetricOpRetries counts one-sided operations re-issued after a
	// transient completion failure (fault injection).
	MetricOpRetries = "pgas_op_retries"
	// MetricPEFailures counts PE deaths observed by the runtime.
	MetricPEFailures = "fault_pe_failures"
	// MetricRecoveries counts successful restarts from a checkpoint
	// after a PE failure.
	MetricRecoveries = "fault_recoveries"
	// MetricCkptCount counts checkpoints written.
	MetricCkptCount = "ckpt_count"
	// MetricCkptBytes accumulates checkpoint shard bytes written.
	MetricCkptBytes = "ckpt_bytes"
	// MetricCkptNS accumulates wall time the compute fleet stalls on
	// checkpoints: the quiesce, the wait for the previous write to release
	// the snapshots, the capture and the hand-off to the writer.
	MetricCkptNS = "ckpt_ns"
	// MetricCkptWriterNS accumulates wall time the background checkpoint
	// writer spends serializing shards and manifests — time hidden behind
	// compute, the counterpart of MetricCkptNS.
	MetricCkptWriterNS = "ckpt_writer_ns"
	// MetricCkptDeltaTiles counts tiles captured into delta shards.
	MetricCkptDeltaTiles = "ckpt_delta_tiles"
	// MetricPlanCacheHits counts compile plan-cache hits (rebinds).
	MetricPlanCacheHits = "plan_cache_hits"
	// MetricPlanCacheMisses counts compile plan-cache misses (including
	// lookups whose binding did not fit the cached template).
	MetricPlanCacheMisses = "plan_cache_misses"
	// MetricCompileNS accumulates total wall time spent in the compile
	// pipeline; the per-stage counters below break it down.
	MetricCompileNS = "compile_ns"
	// MetricCompileFuseNS accumulates time in the fusion stage.
	MetricCompileFuseNS = "compile_fuse_ns"
	// MetricCompilePlanNS accumulates time in sched planning (both the
	// provisional boundary pass and the final plan).
	MetricCompilePlanNS = "compile_plan_ns"
	// MetricCompileClassifyNS accumulates time classifying gates.
	MetricCompileClassifyNS = "compile_classify_ns"
	// MetricCompileExchangeNS accumulates time precomputing remap
	// all-to-all geometry.
	MetricCompileExchangeNS = "compile_exchange_ns"
	// MetricCompileBindNS accumulates time binding parameters into cached
	// plan templates: all a plan-cache hit does (its stage counters above
	// stay zero), plus the attempts that ended in a miss.
	MetricCompileBindNS = "compile_bind_ns"
	// MetricUptimeSeconds is a scrape-time gauge of process uptime.
	MetricUptimeSeconds = "process_uptime_seconds"
	// MetricHeapAllocBytes is a scrape-time gauge of live heap bytes.
	MetricHeapAllocBytes = "process_heap_alloc_bytes"
	// MetricGoroutines is a scrape-time gauge of live goroutines.
	MetricGoroutines = "process_goroutines"
	// MetricFlightEvents counts events recorded by the flight recorder.
	MetricFlightEvents = "flight_events"
	// MetricBytesTouched accumulates state-vector memory traffic, with
	// per-schedule-block families appended as "sv_bytes_touched.block<k>".
	// Fed by the tiled executors; the headline number that cache-blocked
	// execution exists to shrink.
	MetricBytesTouched = "sv_bytes_touched"
	// MetricTileSweeps counts homogeneous state sweeps executed (one per
	// tiled group, one per gate on the per-gate path).
	MetricTileSweeps = "tile_sweeps"
)

// LatencyBuckets returns the standard latency histogram bounds:
// 24 power-of-two buckets from 100ns to ~1.7s.
func LatencyBuckets() []float64 { return ExpBuckets(100, 2, 24) }

// SizeBuckets returns the standard transfer-size histogram bounds:
// 12 power-of-four buckets from 8B to ~128MiB, so the element-grained
// 8/16-byte one-sided accesses and the coalesced whole-partition
// transfers land in clearly separated buckets.
func SizeBuckets() []float64 { return ExpBuckets(8, 4, 12) }
