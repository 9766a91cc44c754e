package core

import (
	"errors"
	"fmt"
	"os"
	"time"

	"svsim/internal/circuit"
	"svsim/internal/ckpt"
	"svsim/internal/fault"
	"svsim/internal/obs"
	"svsim/internal/pgas"
	"svsim/internal/sched"
	"svsim/internal/statevec"
)

// Coordinated checkpoint/restore of the runtime (runtime.go: every
// transport, plan and grid size — on one rank the protocol's barriers
// have nobody to wait for and are skipped).
//
// Two write protocols exist. The synchronous one stops the fleet while
// every PE serializes its full shard. The asynchronous one
// (Config.CheckpointAsync) quiesces only long enough to CAPTURE
// copy-on-write payloads — the whole partition for a full checkpoint,
// the dirtied tiles for a delta — then hands them to a background
// ckpt.AsyncWriter and resumes compute immediately; deltas chain to
// their parent checkpoint and a full checkpoint is forced every
// Config.CheckpointFullEvery-th write to bound restore chains.

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
	every int
	dir   string
	man   ckpt.Manifest // immutable template fields (backend, circuit, ...)

	// Async-mode state. aw is nil in synchronous mode. sinceFull and
	// lastStep are rank-0-only bookkeeping for the delta chain.
	aw        *ckpt.AsyncWriter
	fullEvery int
	sinceFull int
	lastStep  int

	// Per-attempt cross-PE scratch.
	stepDir  string
	mkdirErr error
	subErr   error  // async: sticky writer error observed at the quiesce
	kind     string // async: rank 0's full/delta decision for this write
	parent   int
	shards   []ckpt.Shard
	errs     []error
	payloads []*ckpt.Payload
	t0       time.Time

	stats ckpt.Stats

	// Optional metrics, flight recorder, and async-writer trace lane;
	// all nil-safe.
	mCount      *obs.Counter
	mBytes      *obs.Counter
	mNS         *obs.Counter
	mWriterNS   *obs.Counter
	mDeltaTiles *obs.Counter
	rec         *obs.FlightRecorder
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
		every: cfg.CheckpointEvery,
		dir:   cfg.CheckpointDir,
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
		shards: make([]ckpt.Shard, p),
		errs:   make([]error, p),
	}
	if cfg.Metrics != nil {
		w.mCount = cfg.Metrics.Counter(obs.MetricCkptCount)
		w.mBytes = cfg.Metrics.Counter(obs.MetricCkptBytes)
		w.mNS = cfg.Metrics.Counter(obs.MetricCkptNS)
		w.mWriterNS = cfg.Metrics.Counter(obs.MetricCkptWriterNS)
		w.mDeltaTiles = cfg.Metrics.Counter(obs.MetricCkptDeltaTiles)
	}
	w.rec = cfg.Flight
	if cfg.CheckpointAsync {
		w.fullEvery = cfg.CheckpointFullEvery
		w.payloads = make([]*ckpt.Payload, p)
		w.wtrk = cfg.Trace.Track(p) // writer lane after the PE tracks
		w.aw = ckpt.NewAsyncWriter()
		w.aw.OnJob = func(step int, bytes int64, ns int64, err error) {
			// Runs on the writer goroutine; readers of stats wait for
			// finish(), whose Close() orders these writes before them.
			w.stats.Bytes += bytes
			w.mBytes.Add(bytes)
			w.mWriterNS.Add(ns)
			if err != nil {
				w.rec.Record(-1, obs.EventRunFailed, "async checkpoint: "+err.Error(), int64(step))
				return
			}
			end := time.Now()
			if w.wtrk != nil {
				w.wtrk.SpanAt(fmt.Sprintf("ckpt write step %d", step),
					end.Add(-time.Duration(ns)), end,
					obs.SpanArgs{Kind: "ckpt_write", Phase: obs.PhaseCkptWrite})
			}
			w.rec.Record(-1, obs.EventCheckpoint, fmt.Sprintf("step %d (async)", step), bytes)
		}
	}
	return w
}

// async reports whether this writer runs the background protocol.
func (w *ckptWriter) async() bool { return w != nil && w.aw != nil }

// finish drains the background writer (if any) and returns its latched
// error. Must be called after the SPMD region ends — both on success
// (queued checkpoints must land before the process may exit) and on
// failure (the writer goroutine must stop). Safe on nil and sync-mode
// writers.
func (w *ckptWriter) finish() error {
	if !w.async() {
		return nil
	}
	err := w.aw.Close()
	w.aw = nil
	if err != nil {
		return fmt.Errorf("core: async checkpoint writer: %w", err)
	}
	return nil
}

// decideKind picks full or delta for the next async checkpoint. Rank 0
// only. A nil dirty tracker (backend without write tracking) forces
// full, as does a chain at its fullEvery bound.
func (w *ckptWriter) decideKind(dirty *ckpt.Dirty) {
	if dirty == nil || w.fullEvery <= 1 || w.sinceFull == 0 || w.sinceFull >= w.fullEvery {
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

// capture snapshots this PE's payload for an async checkpoint according
// to rank 0's kind decision, clearing the dirty tracker either way (a
// full capture also resets the delta baseline).
func (w *ckptWriter) capture(rank int, local *statevec.State, dirty *ckpt.Dirty) {
	if w.kind == ckpt.KindDelta {
		p := ckpt.CaptureDelta(local, dirty)
		w.payloads[rank] = p
		w.mDeltaTiles.Add(int64(len(p.Tiles)))
		return
	}
	w.payloads[rank] = ckpt.CaptureFull(local)
	if dirty != nil {
		dirty.Clear()
	}
}

// write runs the coordinated checkpoint protocol; every PE must call it
// at the same schedule position with ops executable-stream ops
// completed. In synchronous mode the region quiesces at a barrier, each
// PE writes its shard, and rank 0 publishes the manifest only after
// every shard has landed. In asynchronous mode the quiesce covers only
// payload capture: rank 0 submits the job to the background writer and
// compute proceeds while the shards serialize. Any I/O error aborts the
// run as a terminal (non-recoverable) failure.
func (w *ckptWriter) write(pe *pgas.PE, r *Rank, step, ops int, perm circuit.Permutation) {
	if w.async() {
		w.writeAsync(pe, r, step, ops, perm)
		return
	}
	gridSync(pe) // quiesce: all in-flight one-sided writes are visible
	if pe.Rank == 0 {
		w.t0 = time.Now()
		w.stepDir = ckpt.StepDir(w.dir, step)
		w.mkdirErr = os.MkdirAll(w.stepDir, 0o755)
	}
	gridSync(pe)
	if w.mkdirErr != nil {
		if pe.Rank == 0 {
			pe.Fail(fmt.Errorf("core: checkpoint at step %d: %w", step, w.mkdirErr))
		}
		return // peers unwind at their next barrier
	}
	w.shards[pe.Rank], w.errs[pe.Rank] = ckpt.WriteShard(w.stepDir, pe.Rank, r.Local)
	if r.dirty != nil {
		r.dirty.Clear() // the full shard is the new delta baseline
	}
	gridSync(pe)
	if pe.Rank != 0 {
		gridSync(pe) // matches rank 0's post-manifest barrier below
		return
	}
	for r, err := range w.errs {
		if err != nil {
			pe.Fail(fmt.Errorf("core: checkpoint at step %d (rank %d): %w", step, r, err))
		}
	}
	w.kind = ckpt.KindFull
	m := w.fillManifest(step, ops, r.cbits, r.draws, perm)
	m.Shards = append([]ckpt.Shard(nil), w.shards...)
	if err := ckpt.WriteManifest(w.stepDir, m); err != nil {
		pe.Fail(fmt.Errorf("core: checkpoint at step %d: %w", step, err))
	}
	var bytes int64
	for _, sh := range w.shards {
		bytes += sh.Bytes
	}
	ns := time.Since(w.t0).Nanoseconds()
	w.stats.Count++
	w.stats.Bytes += bytes
	w.stats.NS += ns
	w.mCount.Add(1)
	w.mBytes.Add(bytes)
	w.mNS.Add(ns)
	w.rec.Record(pe.Rank, obs.EventCheckpoint, fmt.Sprintf("step %d", step), bytes)
	gridSync(pe) // nobody proceeds until the checkpoint is published
}

// writeAsync is the asynchronous protocol: quiesce, decide full/delta
// fleet-uniformly, capture copy-on-write payloads, and hand the job to
// the background writer. Only rank 0 talks to the writer; a latched
// writer error surfaces here (and at finish) as a terminal failure.
func (w *ckptWriter) writeAsync(pe *pgas.PE, r *Rank, step, ops int, perm circuit.Permutation) {
	gridSync(pe) // quiesce: all in-flight one-sided writes are visible
	if pe.Rank == 0 {
		w.t0 = time.Now()
		w.subErr = w.aw.Err()
		if w.subErr == nil {
			w.stepDir = ckpt.StepDir(w.dir, step)
			w.decideKind(r.dirty)
		}
	}
	gridSync(pe) // publishes the kind decision (or the latched error)
	if w.subErr != nil {
		if pe.Rank == 0 {
			pe.Fail(fmt.Errorf("core: checkpoint at step %d: %w", step, w.subErr))
		}
		return // peers unwind at their next barrier
	}
	w.capture(pe.Rank, r.Local, r.dirty)
	gridSync(pe) // all payloads captured; compute may dirty state again
	if pe.Rank != 0 {
		return // durability is the writer's job from here
	}
	m := w.fillManifest(step, ops, r.cbits, r.draws, perm)
	if err := w.aw.Submit(w.stepDir, m, append([]*ckpt.Payload(nil), w.payloads...)); err != nil {
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

// resolveResume accepts either a specific ckpt-<step> directory or a
// checkpoint base directory (whose latest complete checkpoint is used)
// and returns the manifest.
func resolveResume(dir string) (string, *ckpt.Manifest, error) {
	return ckpt.Resolve(dir)
}

// validateManifest rejects a resume against a run configuration that
// does not match the checkpointed one. planFP is the current run's
// compiled-plan fingerprint; manifests from older builds carry zero and
// skip that check.
func validateManifest(m *ckpt.Manifest, backend string, c *circuit.Circuit, p int, pol sched.Policy, planFP uint64) error {
	if m.Backend != backend {
		return fmt.Errorf("core: checkpoint was taken by backend %q, resuming on %q", m.Backend, backend)
	}
	if m.PEs != p {
		return fmt.Errorf("core: checkpoint used %d PEs, run has %d", m.PEs, p)
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
