// Package core implements the SV-Sim simulator itself: the execution
// backends of §3.2 — single-device, threaded shared-memory (Listing 3),
// single-node scale-up over a shared peer pointer array (Listing 4), and
// multi-node scale-out over the SHMEM substrate (Listing 5) — and the
// two-sided MPI baseline of §2.1 they are compared against.
//
// Every run goes through one runtime (runtime.go): a compiled plan
// walked by one SPMD step loop over a Transport, with one checkpoint
// writer, one stop latch and one recovery loop. The paper's backends are
// one gate loop that differs only in how the state array is reached, and
// so are these: one backend table (backend.go) whose rows single and
// threaded are the one-rank grid over the local transport, scale-up and
// scale-out the one-sided PGAS transport (pgastransport.go), and mpi the
// two-sided transport (mpitransport.go). The paper's preloaded
// function-pointer gate dispatch (Listing 1) is statevec's per-kind
// kernel dispatch.
package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"svsim/internal/circuit"
	"svsim/internal/ckpt"
	"svsim/internal/compile"
	"svsim/internal/fault"
	"svsim/internal/obs"
	"svsim/internal/pgas"
	"svsim/internal/sched"
	"svsim/internal/statevec"
)

// Config selects a backend configuration.
type Config struct {
	// Seed drives measurement randomness; equal seeds give equal outcomes
	// across all backends.
	Seed int64
	// Style selects the kernel loop shape (scalar vs blocked/vectorized).
	Style statevec.KernelStyle
	// PEs is the number of devices (scale-up), SHMEM processing elements
	// (scale-out), ranks (mpi) or pool workers (threaded). Must be a power
	// of two on the partitioned backends. Ignored by the single-device
	// backend.
	PEs int
	// Coalesced enables the bulk-transfer remote path in the scale-out
	// backend (the paper's warp-coalesced NVSHMEM access); element-wise
	// get/put otherwise.
	Coalesced bool
	// Fuse runs the gate-fusion optimization pass (internal/fusion) on
	// the circuit before execution: single-qubit runs collapse to one
	// gate and self-inverse pairs cancel, exactly preserving the state.
	Fuse bool
	// Sched selects the distributed gate schedule: sched.Naive (the
	// default; every global-qubit gate pays its remote traffic) or
	// sched.Lazy (communication-avoiding qubit remapping: gates run in
	// local blocks separated by pairwise remap exchanges). Ignored
	// by the single-device backend.
	Sched sched.Policy
	// Tile is ignored: every run tiles whenever a rank's window holds
	// more than one tile (see TileBits). It is kept only for the frozen
	// benchmark harness, which still sets it.
	Tile bool
	// TileBits overrides the tile size (amplitudes per tile = 1<<TileBits)
	// when > 0; 0 lets the planner derive it from the circuit's target
	// strides. On every backend, compatible gate runs execute as one
	// homogeneous pass over cache-resident tiles of each rank's window
	// instead of one window sweep per gate, bit-identical to the per-gate
	// path. A tile as large as the window (TileBits >= n - log2 PEs, or a
	// derived size that reaches it) leaves every gate its own sweep.
	TileBits int
	// Pool, when non-nil, is a persistent shared-memory worker pool the
	// threaded backend executes on instead of building (and tearing
	// down) one per Run call. A Fleet owns one pool across all its jobs;
	// the pool's worker count takes precedence over PEs. Ignored by the
	// other backends.
	Pool *statevec.Pool
	// Plans, when non-nil, is a shared compile plan cache: circuits with
	// the same skeleton (gate kinds + qubit pattern, parameter values
	// excluded) reuse one schedule, so variational sweeps plan once per
	// ansatz shape. Nil compiles every circuit from scratch.
	Plans *compile.Cache
	// Trace, if non-nil, records one span per executed gate onto a
	// per-PE track (Chrome trace-event timeline with communication
	// attribution). Nil keeps the step loop on its untimed fast path.
	Trace *obs.Tracer
	// Metrics, if non-nil, receives gate-kernel latency histograms by
	// gate kind and — through the pgas substrate — put/get size and
	// barrier wait-time distributions. Nil disables collection.
	Metrics *obs.Metrics
	// Flight, if non-nil, receives structured runtime events (remaps,
	// checkpoints, injected faults, retries, barrier timeouts, restarts)
	// into a bounded ring for post-mortem JSONL dumps. Nil disables it.
	Flight *obs.FlightRecorder

	// CheckpointEvery, when > 0 together with CheckpointDir, writes a
	// coordinated checkpoint every that many plan steps (gates on one
	// rank and under the naive plan; gates, aliases and remaps under the
	// lazy plan), at tile-group edges in a tiled run. The fleet stalls
	// only to capture each rank's partition into one reused snapshot; a
	// background writer publishes the checkpoint while compute proceeds.
	CheckpointEvery int
	// CheckpointDir is the checkpoint base directory; each checkpoint
	// becomes a ckpt-<step> subdirectory holding per-PE shards and a
	// manifest.
	CheckpointDir string
	// Resume, when non-empty, continues the run from a checkpoint: either
	// a specific ckpt-<step> directory or a base directory whose latest
	// complete checkpoint is used. The checkpoint may have been taken on
	// any grid size: on this run's it restores shard by shard in place, on
	// another it is resharded onto this one (elastic.go).
	Resume string
	// warm, when non-nil, starts the run from a full logical state (a
	// reshard's) instead of |0...0>; a checkpoint the run itself writes
	// and recovers from takes precedence.
	warm *ckpt.WarmStart
	// Elastic lets the distributed recovery loop shrink the fleet after a
	// PE failure when full-size restarts keep dying: the latest
	// checkpoint is re-sharded onto half the PEs and the residual circuit
	// re-planned there.
	Elastic bool
	// Stop, when non-nil, is polled at step boundaries — by several ranks
	// cutting checkpoints, at the cuts, where they vote: once triggered
	// the run writes a final checkpoint (when configured) and unwinds
	// with ErrInterrupted.
	Stop *StopLatch
	// Fault, when non-nil, injects deterministic faults into the
	// communication substrate (see internal/fault).
	Fault *fault.Injector
	// Timeouts configures barrier deadlines and one-sided retry budgets
	// for the distributed backends; the zero value waits forever.
	Timeouts pgas.Timeouts
	// MaxRestarts bounds how many times a run is restarted from its last
	// checkpoint after a PE failure before giving up with a RunFailure.
	MaxRestarts int
}

// Result carries the outcome of one simulation run.
type Result struct {
	Backend string
	// State is the final state vector, gathered to a single array for
	// distributed backends.
	State *statevec.State
	// Cbits holds the classical register after measurements (bit i is
	// classical bit i).
	Cbits uint64
	// SV aggregates the state-vector work counters across all devices.
	SV statevec.Stats
	// Comm aggregates one-sided communication counters (zero for the
	// single-device backend).
	Comm pgas.Stats
	// MPI aggregates the two-sided message counters of the mpi backend;
	// zero on the other transports.
	MPI MPIStats
	// Elapsed is the wall-clock simulation time of the run loop.
	Elapsed time.Duration
	// PEs is the number of devices/PEs used.
	PEs int
	// Mem is a post-run runtime memory snapshot, captured only when the
	// run had tracing or metrics attached (nil otherwise).
	Mem *obs.MemSnapshot
	// Ckpt counts the checkpoints this run wrote. Its NS is the
	// compute-path stall; the background writer's time is the
	// ckpt_writer_ns metric.
	Ckpt ckpt.Stats
	// Recoveries counts restarts from a checkpoint after PE failures.
	Recoveries int
	// Compile reports what the circuit-preparation pipeline did for this
	// run: fusion stats, remap count, plan-cache hit, per-stage times.
	Compile compile.Stats
}

// Backend runs circuits. NewBackend builds one by its table name;
// NewSingleDevice, NewScaleUp, NewScaleOut and NewMPI are shorthands for
// four of the rows.
type Backend interface {
	Name() string
	Run(c *circuit.Circuit) (*Result, error)
}

// condSatisfied evaluates an OpenQASM if-condition against the classical
// register.
func condSatisfied(cond *circuit.Condition, cbits uint64) bool {
	if cond == nil {
		return true
	}
	mask := uint64(1)<<uint(cond.Width) - 1
	return (cbits>>uint(cond.Offset))&mask == cond.Value
}

func setCbit(cbits uint64, idx int, v int) uint64 {
	if v == 1 {
		return cbits | uint64(1)<<uint(idx)
	}
	return cbits &^ (uint64(1) << uint(idx))
}

// checkCircuit validates the register sizes a backend supports; operands,
// classical bits and conditions are validated by the compile pipeline's
// one walk of the ops (compile.Compile returns circuit.Validate's error).
func checkCircuit(c *circuit.Circuit, maxCbits int) error {
	if c.NumQubits < 1 {
		return fmt.Errorf("core: circuit %q has no qubits", c.Name)
	}
	if c.NumClbits > maxCbits {
		return fmt.Errorf("core: circuit %q needs %d classical bits, backend supports %d",
			c.Name, c.NumClbits, maxCbits)
	}
	return nil
}

// checkPEs validates the distributed partition geometry. It runs before
// compilation so geometry errors keep their backend-specific wording.
func checkPEs(p, n int) error {
	if p < 1 {
		p = 1
	}
	if p&(p-1) != 0 {
		return fmt.Errorf("core: PE count %d is not a power of two", p)
	}
	if 1<<uint(n-1) < p {
		return fmt.Errorf("core: %d PEs need at least %d qubits (have %d)", p, bits.Len(uint(p-1))+1, n)
	}
	return nil
}

// compileCircuit routes a backend's circuit preparation through the
// shared pipeline: fusion (when cfg.Fuse), scheduling, classification,
// exchange geometry and the tile plan, consulting cfg.Plans when set.
func compileCircuit(cfg Config, c *circuit.Circuit, pes int) (*compile.CompiledPlan, compile.Stats, error) {
	return compile.Compile(c, compile.Config{
		Fuse:     cfg.Fuse,
		Sched:    cfg.Sched,
		PEs:      pes,
		TileBits: cfg.TileBits,
		Cache:    cfg.Plans,
		Metrics:  cfg.Metrics,
	})
}

// newRNG builds the deterministic measurement stream shared by every
// backend so that equal seeds collapse identically everywhere.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
