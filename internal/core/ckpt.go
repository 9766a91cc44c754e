package core

import (
	"errors"
	"fmt"
	"time"

	"svsim/internal/circuit"
	"svsim/internal/ckpt"
	"svsim/internal/fault"
	"svsim/internal/obs"
	"svsim/internal/pgas"
	"svsim/internal/sched"
)

// Coordinated checkpoint/restore of the runtime (runtime.go: every
// transport, plan and grid size — on one rank the protocol's barriers
// have nobody to wait for and are skipped).
//
// One write protocol: the fleet quiesces, every rank CAPTURES its
// partition into its one reused snapshot — the whole partition for a
// full checkpoint, the dirtied tiles packed into the snapshot's prefix
// for a delta — and rank 0 hands the job to a background
// ckpt.AsyncWriter while compute resumes. A capture first waits for the
// previous write to release the snapshots, so at most one checkpoint is
// in flight, peak memory is the state plus one partition copy per rank,
// and the stall is whatever of the write the compute since the last cut
// did not hide. Deltas chain to their parent checkpoint and every
// Config.CheckpointFullEvery-th write is full, bounding restore chains.
// Nothing is built before the first cut: the writer goroutine, the
// snapshots and — only when deltas are possible — the dirty trackers.

// RunFailure is the structured terminal error of a distributed run that
// could not be completed: the PE failure (or other root cause) survives
// in Cause, and Attempts records how many executions were tried
// (1 = no recovery was possible or configured).
type RunFailure struct {
	Backend  string
	Attempts int
	Cause    error
}

func (e *RunFailure) Error() string {
	return fmt.Sprintf("core: %s run failed after %d attempt(s): %v", e.Backend, e.Attempts, e.Cause)
}

// Unwrap exposes the root cause.
func (e *RunFailure) Unwrap() error { return e.Cause }

// recoverable reports whether err is a PE failure worth restarting from
// a checkpoint: an injected kill, a stalled barrier, or an exhausted
// one-sided retry budget. Checkpoint I/O errors, interrupts, and plain
// validation errors are terminal.
func recoverable(err error) bool {
	var ke *fault.KillError
	var bte *pgas.BarrierTimeoutError
	var ote *pgas.OpTimeoutError
	return errors.As(err, &ke) || errors.As(err, &bte) || errors.As(err, &ote)
}

// ckptWriter drives the coordinated checkpoint protocol inside an SPMD
// region. One instance is shared by all PEs of a run; the cross-PE slots
// are synchronized by the protocol's barriers.
type ckptWriter struct {
	every     int
	fullEvery int
	dir       string
	man       ckpt.Manifest // immutable template fields (backend, circuit, ...)

	// Built at the attempt's first cut by rank 0: the background writer
	// and one snapshot per rank, reused by every later cut. sinceFull and
	// lastStep are rank-0-only bookkeeping for the delta chain.
	aw        *ckpt.AsyncWriter
	snaps     []*ckpt.Payload
	sinceFull int
	lastStep  int

	// Per-cut cross-PE scratch, published by the protocol's barriers.
	err    error  // the previous write's latched error, seen at the quiesce
	kind   string // rank 0's full/delta decision for this cut
	parent int
	t0     time.Time

	stats ckpt.Stats

	// Optional metrics, flight recorder, tracer (for the writer's trace
	// lane); all nil-safe.
	mCount      *obs.Counter
	mBytes      *obs.Counter
	mNS         *obs.Counter
	mWriterNS   *obs.Counter
	mDeltaTiles *obs.Counter
	rec         *obs.FlightRecorder
	trace       *obs.Tracer
	wtrk        *obs.Track
}

// newCkptWriter returns nil when checkpointing is off. The manifest
// records the executable circuit's hash and the compiled plan's
// fingerprint so a resume under a different gate stream or schedule is
// rejected.
func newCkptWriter(cfg Config, backend string, c *circuit.Circuit, p int, planFP uint64) *ckptWriter {
	if cfg.CheckpointEvery <= 0 || cfg.CheckpointDir == "" {
		return nil
	}
	w := &ckptWriter{
		every:     cfg.CheckpointEvery,
		fullEvery: cfg.CheckpointFullEvery,
		dir:       cfg.CheckpointDir,
		man: ckpt.Manifest{
			Backend:         backend,
			Circuit:         c.Name,
			CircuitHash:     ckpt.Fingerprint(c),
			PlanFingerprint: planFP,
			NumQubits:       c.NumQubits,
			PEs:             p,
			Sched:           schedName(cfg.Sched),
			Seed:            cfg.Seed,
		},
		rec:   cfg.Flight,
		trace: cfg.Trace,
	}
	if cfg.Metrics != nil {
		w.mCount = cfg.Metrics.Counter(obs.MetricCkptCount)
		w.mBytes = cfg.Metrics.Counter(obs.MetricCkptBytes)
		w.mNS = cfg.Metrics.Counter(obs.MetricCkptNS)
		w.mWriterNS = cfg.Metrics.Counter(obs.MetricCkptWriterNS)
		w.mDeltaTiles = cfg.Metrics.Counter(obs.MetricCkptDeltaTiles)
	}
	return w
}

// start builds what checkpoints need at the attempt's first cut: one
// empty snapshot per rank (its buffers are allocated by the first
// capture), the writer's trace lane after the PE tracks, and the writer.
// Rank 0 only.
func (w *ckptWriter) start() {
	w.snaps = make([]*ckpt.Payload, w.man.PEs)
	for r := range w.snaps {
		w.snaps[r] = new(ckpt.Payload)
	}
	w.wtrk = w.trace.Track(w.man.PEs)
	w.aw = ckpt.NewAsyncWriter()
	w.aw.OnJob = w.written
}

// written accounts one landed (or failed) write. It runs on the writer
// goroutine; readers of stats wait for finish(), whose Close() orders
// these writes before them.
func (w *ckptWriter) written(step int, bytes int64, ns int64, err error) {
	w.stats.Bytes += bytes
	w.mBytes.Add(bytes)
	w.mWriterNS.Add(ns)
	if err != nil {
		w.rec.Record(-1, obs.EventRunFailed, "checkpoint write: "+err.Error(), int64(step))
		return
	}
	end := time.Now()
	if w.wtrk != nil {
		w.wtrk.SpanAt(fmt.Sprintf("ckpt write step %d", step),
			end.Add(-time.Duration(ns)), end,
			obs.SpanArgs{Kind: "ckpt_write", Phase: obs.PhaseCkptWrite})
	}
	w.rec.Record(-1, obs.EventCheckpoint, fmt.Sprintf("step %d", step), bytes)
}

// finish drains the background writer, if a cut started one, and returns
// its latched error. Must be called after the SPMD region ends — both on
// success (the last checkpoint must land before the run returns) and on
// failure (the writer goroutine must stop). Safe on a nil writer.
func (w *ckptWriter) finish() error {
	if w == nil || w.aw == nil {
		return nil
	}
	if err := w.aw.Close(); err != nil {
		return fmt.Errorf("core: checkpoint writer: %w", err)
	}
	return nil
}

// decideKind picks full or delta for the next checkpoint. Rank 0 only.
// A cut is full when deltas are off, at the attempt's first cut, and
// when the chain has reached its fullEvery bound.
func (w *ckptWriter) decideKind() {
	if w.fullEvery <= 1 || w.sinceFull == 0 || w.sinceFull >= w.fullEvery {
		w.kind = ckpt.KindFull
		return
	}
	w.kind = ckpt.KindDelta
	w.parent = w.lastStep
}

// noteSubmitted advances the rank-0 chain bookkeeping after a
// successful submit of step.
func (w *ckptWriter) noteSubmitted(step int) {
	if w.kind == ckpt.KindFull {
		w.sinceFull = 1
	} else {
		w.sinceFull++
	}
	w.lastStep = step
}

// fillManifest copies the template and stamps the per-checkpoint fields.
func (w *ckptWriter) fillManifest(step, ops int, cbits uint64, draws int64, perm circuit.Permutation) *ckpt.Manifest {
	m := w.man
	m.Step = step
	m.OpsDone = ops
	m.Cbits = cbits
	m.Draws = draws
	if perm != nil {
		m.Perm = append([]int(nil), perm...)
	}
	m.Kind = w.kind
	if m.Kind == ckpt.KindDelta {
		m.Parent = w.parent
	}
	return &m
}

// capture takes this rank's snapshot according to rank 0's kind
// decision. A full capture is the new delta baseline: when deltas are
// possible it clears the rank's dirty tracker, built here at the first.
func (w *ckptWriter) capture(rank int, r *Rank) {
	snap := w.snaps[rank]
	if w.kind == ckpt.KindDelta {
		snap.CaptureTiles(r.Local, r.dirty)
		w.mDeltaTiles.Add(int64(len(snap.Tiles)))
		return
	}
	snap.Capture(r.Local)
	if w.fullEvery > 1 {
		if r.dirty == nil {
			r.dirty = ckpt.NewDirty(r.Local.Dim, 0)
		}
		r.dirty.Clear()
	}
}

// write runs the coordinated checkpoint protocol; every PE must call it
// at the same schedule position with ops executable-stream ops
// completed. The region quiesces at a barrier; rank 0 waits for the
// previous write to release the snapshots and decides full or delta for
// the fleet; every rank captures; rank 0 hands the job to the background
// writer and compute proceeds while the shards serialize. A latched
// writer error surfaces here (and at finish) as a terminal
// (non-recoverable) failure.
func (w *ckptWriter) write(pe *pgas.PE, r *Rank, step, ops int, perm circuit.Permutation) {
	gridSync(pe) // quiesce: all in-flight one-sided writes are visible
	if pe.Rank == 0 {
		w.t0 = time.Now()
		if w.aw == nil {
			w.start()
		}
		if w.err = w.aw.Wait(); w.err == nil {
			w.decideKind()
		}
	}
	gridSync(pe) // publishes the kind decision (or the latched error)
	if w.err != nil {
		if pe.Rank == 0 {
			pe.Fail(fmt.Errorf("core: checkpoint at step %d: %w", step, w.err))
		}
		return // peers unwind at their next barrier
	}
	w.capture(pe.Rank, r)
	gridSync(pe) // all snapshots taken; compute may dirty state again
	if pe.Rank != 0 {
		return // durability is the writer's job from here
	}
	m := w.fillManifest(step, ops, r.cbits, r.draws, perm)
	if err := w.aw.Submit(ckpt.StepDir(w.dir, step), m, w.snaps); err != nil {
		pe.Fail(fmt.Errorf("core: checkpoint at step %d: %w", step, err))
	}
	w.noteSubmitted(step)
	ns := time.Since(w.t0).Nanoseconds()
	w.stats.Count++
	w.stats.NS += ns
	w.mCount.Add(1)
	w.mNS.Add(ns)
	w.rec.Record(pe.Rank, obs.EventCkptQueued, fmt.Sprintf("step %d %s", step, w.kind), int64(step))
}

// gridSync is the protocol's fleet barrier; a one-rank grid has nobody
// to wait for.
func gridSync(pe *pgas.PE) {
	if pe.NPEs() > 1 {
		pe.Barrier()
	}
}

// schedName normalizes a policy for manifest comparison (the zero value
// means naive).
func schedName(p sched.Policy) string {
	if p == "" {
		return string(sched.Naive)
	}
	return string(p)
}

// validateManifest rejects a resume against a run configuration that
// does not match the checkpointed one — in everything but the grid size,
// which decides how the checkpoint continues (run). c is the executable
// stream compiled at the checkpoint's grid size and planFP that
// compile's fingerprint; manifests from older builds carry zero and skip
// that check.
func validateManifest(m *ckpt.Manifest, backend string, c *circuit.Circuit, pol sched.Policy, planFP uint64) error {
	if m.Backend != backend {
		return fmt.Errorf("core: checkpoint was taken by backend %q, resuming on %q", m.Backend, backend)
	}
	if m.Sched != schedName(pol) {
		return fmt.Errorf("core: checkpoint used sched %q, run has %q", m.Sched, schedName(pol))
	}
	if m.NumQubits != c.NumQubits {
		return fmt.Errorf("core: checkpoint holds %d qubits, circuit has %d", m.NumQubits, c.NumQubits)
	}
	if got := ckpt.Fingerprint(c); m.CircuitHash != got {
		return fmt.Errorf("core: checkpoint was taken for circuit %q (hash %016x), current circuit hashes %016x",
			m.Circuit, m.CircuitHash, got)
	}
	if m.PlanFingerprint != 0 && planFP != 0 && m.PlanFingerprint != planFP {
		return fmt.Errorf("core: checkpoint was taken under plan %016x, current compile produced %016x",
			m.PlanFingerprint, planFP)
	}
	return nil
}

// restoreShards loads every rank's partition — materialized through its
// delta chain when the checkpoint is incremental.
func restoreShards(dir string, m *ckpt.Manifest, ranks []Rank) error {
	links, err := ckpt.Chain(dir, m)
	if err != nil {
		return err
	}
	for r := range ranks {
		st, err := ckpt.RestoreShardChain(links, r, ranks[r].Local.N)
		if err != nil {
			return err
		}
		copy(ranks[r].Local.Re, st.Re)
		copy(ranks[r].Local.Im, st.Im)
	}
	return nil
}

// replayDraws advances a replicated RNG stream past the draws already
// consumed before the checkpoint.
func replayDraws(rng interface{ Float64() float64 }, n int64) {
	for i := int64(0); i < n; i++ {
		rng.Float64()
	}
}
