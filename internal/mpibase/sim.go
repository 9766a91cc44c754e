package mpibase

import (
	"time"

	"svsim/internal/circuit"
	"svsim/internal/ckpt"
	"svsim/internal/compile"
	"svsim/internal/core"
	"svsim/internal/fault"
	"svsim/internal/obs"
	"svsim/internal/sched"
	"svsim/internal/statevec"
)

// Simulator is a distributed baseline: the shared runtime of
// internal/core (state vector partitioned in natural array order across
// ranks, local gates through the same specialized kernels as SV-Sim,
// the same checkpoint, recovery and elastic machinery) over the
// two-sided transport. New walks the naive plan — every global-qubit
// gate is a pack–exchange–compute — and NewRemap the lazy plan of the
// shared communication-avoiding scheduler (internal/sched), realizing
// each remap's bit swaps as pairwise half-partition exchanges: the same
// plan the PGAS backends realize as a coalesced all-to-all.
type Simulator struct {
	cfg  Config
	plan sched.Policy
}

// Config configures the baseline run.
type Config struct {
	Ranks int
	Seed  int64
	Style statevec.KernelStyle
	// Fuse runs the compile pipeline's gate-fusion pass before execution,
	// exactly as the core backends do, so -fuse behaves identically on
	// every backend.
	Fuse bool
	// Plans, if non-nil, is a shared compiled-plan cache (see
	// internal/compile); repeated runs of same-shape circuits reuse their
	// plan.
	Plans *compile.Cache
	// Trace, if non-nil, records one span per executed gate onto a
	// per-rank track with two-sided message attribution.
	Trace *obs.Tracer
	// Metrics, if non-nil, receives gate latency, message size, and
	// barrier wait-time histograms.
	Metrics *obs.Metrics
	// Flight, if non-nil, receives structured runtime events (remaps,
	// checkpoints, injected faults, restarts) for post-mortem JSONL dumps.
	Flight *obs.FlightRecorder
	// CheckpointEvery, with CheckpointDir, writes a coordinated
	// checkpoint every that many plan steps (same format as the core
	// backends, see internal/ckpt; manifests carry backend "mpi" and the
	// plan's policy).
	CheckpointEvery int
	// CheckpointDir is the checkpoint base directory.
	CheckpointDir string
	// CheckpointAsync hands checkpoint serialization to a background
	// writer goroutine: the fleet quiesces only long enough to capture
	// copy-on-write payloads, then resumes compute while the writer
	// serializes.
	CheckpointAsync bool
	// Resume restores from a checkpoint directory before executing.
	Resume string
	// Init, if non-nil, warm-starts the run from a resharded logical
	// state (elastic restore, see ckpt.ReshardLogical) instead of |0..0>.
	// Applied before Resume.
	Init *ckpt.WarmStart
	// Stop, if non-nil, is polled at checkpoint boundaries — at every
	// step boundary when checkpointing is off; once triggered the fleet
	// writes one final checkpoint there (when configured) and unwinds
	// with ErrInterrupted (graceful shutdown).
	Stop *core.StopLatch
	// Elastic permits recovery at a smaller fleet: when a rank is killed
	// and the latest checkpoint is elastically restorable, the run is
	// resharded onto Ranks/2 ranks instead of restarting at full size.
	Elastic bool
	// Fault injects deterministic faults; the baseline's fault surface
	// is its barriers (kill, delay or stall a rank at its n-th barrier).
	Fault *fault.Injector
	// MaxRestarts bounds checkpoint restarts after a rank failure.
	MaxRestarts int
	// Topology groups ranks into nodes (see sched.Topology). A remap
	// then orders its bit swaps intra-node first, the folded initial
	// remaps are elided, and the message volume splits into intra-node
	// and inter-node bytes. The final state is identical to the flat
	// run; the zero value is flat.
	Topology sched.Topology
}

// Result mirrors core.Result for the baseline.
type Result struct {
	State   *statevec.State
	Cbits   uint64
	SV      statevec.Stats
	MPI     Stats
	Elapsed time.Duration
	Ranks   int
	// Mem is a post-run runtime memory snapshot, captured only when the
	// run had tracing or metrics attached (nil otherwise).
	Mem *obs.MemSnapshot
	// Ckpt counts the checkpoints this run wrote.
	Ckpt ckpt.Stats
	// Recoveries counts restarts from a checkpoint after rank failures.
	Recoveries int
	// Compile reports the compile pipeline's stage timings and plan-cache
	// outcome for this run.
	Compile compile.Stats

	// Scheduler statistics of the plan the run finished on; all zero
	// under the naive plan.
	BitSwaps int64 // global-local bit swaps performed
	Remaps   int64 // remap exchanges (a remap batches >= 1 swaps)
	// Folded counts remap steps whose data movement was elided because
	// they act on |0...0> (topology runs only).
	Folded int64
	// IntraBytes and InterBytes split the remaps' message volume by node
	// locality under Config.Topology; both zero on a flat run.
	IntraBytes int64
	InterBytes int64
}

// New creates the pack–exchange–compute baseline (naive plan).
func New(cfg Config) *Simulator { return &Simulator{cfg: cfg, plan: sched.Naive} }

// NewRemap creates the qubit-remapping baseline (lazy plan).
func NewRemap(cfg Config) *Simulator { return &Simulator{cfg: cfg, plan: sched.Lazy} }

// ErrInterrupted is the terminal error of a run stopped by Config.Stop.
// When checkpointing was configured a final checkpoint was published
// first.
var ErrInterrupted = core.ErrInterrupted

// RunFailure is the structured terminal error of a baseline run that
// could not be completed despite recovery.
type RunFailure = core.RunFailure

// backend names the baseline in results and checkpoint manifests, under
// either plan.
const backend = "mpi"

// coreConfig maps the baseline's Config onto the shared runtime's.
func (s *Simulator) coreConfig() core.Config {
	c := s.cfg
	return core.Config{
		Seed: c.Seed, Style: c.Style, PEs: c.Ranks, Fuse: c.Fuse, Sched: s.plan,
		Plans: c.Plans, Trace: c.Trace, Metrics: c.Metrics, Flight: c.Flight,
		CheckpointEvery: c.CheckpointEvery, CheckpointDir: c.CheckpointDir,
		CheckpointAsync: c.CheckpointAsync, Resume: c.Resume, Init: c.Init,
		Elastic: c.Elastic, Stop: c.Stop, Fault: c.Fault,
		MaxRestarts: c.MaxRestarts, Topology: c.Topology,
	}
}

// Run executes the circuit and returns the gathered result. With a fault
// injector attached, a killed rank aborts the fleet; when checkpointing
// is configured the run restarts from the latest complete checkpoint, up
// to MaxRestarts times, before reporting a structured RunFailure.
func (s *Simulator) Run(c *circuit.Circuit) (*Result, error) {
	a := attempts{metrics: s.cfg.Metrics}
	res, err := core.Run(backend, s.coreConfig(), c, a.transport)
	return a.result(res, err)
}

// RunElastic resumes circuit c from a checkpoint taken at a different
// fleet size: the checkpoint is resharded onto newRanks ranks and the
// residual gate stream executes there. The circuit must be the one the
// checkpoint was taken from.
func (s *Simulator) RunElastic(c *circuit.Circuit, resume string, newRanks int) (*Result, error) {
	a := attempts{metrics: s.cfg.Metrics}
	res, err := core.RunElastic(backend, s.coreConfig(), c, resume, newRanks, a.transport)
	return a.result(res, err)
}

// attempts builds the two-sided transport of each execution attempt (a
// restart or an elastic shrink builds a fresh one) and remembers the
// last, whose message counters are the completed run's.
type attempts struct {
	metrics *obs.Metrics
	last    *twoSided
}

func (a *attempts) transport(g *core.Grid) core.Transport {
	a.last = newTwoSided(g, a.metrics)
	return a.last
}

// result reports the shared runtime's result in the baseline's terms.
func (a *attempts) result(res *core.Result, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	plan := a.last.Compiled.Plan
	return &Result{
		State: res.State, Cbits: res.Cbits, SV: res.SV, MPI: a.last.comm.TotalStats(),
		Elapsed: res.Elapsed, Ranks: res.PEs, Mem: res.Mem, Ckpt: res.Ckpt,
		Recoveries: res.Recoveries, Compile: res.Compile,
		BitSwaps: int64(plan.BitSwaps), Remaps: int64(plan.Remaps), Folded: int64(plan.Folded),
		IntraBytes: res.IntraBytes, InterBytes: res.InterBytes,
	}, nil
}
