package mpibase

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"path/filepath"
	"time"

	"svsim/internal/circuit"
	"svsim/internal/ckpt"
	"svsim/internal/compile"
	"svsim/internal/fault"
	"svsim/internal/gate"
	"svsim/internal/obs"
	"svsim/internal/sched"
	"svsim/internal/statevec"
)

// Simulator is the distributed baseline: state vector partitioned in
// natural array order across ranks, local gates through the same
// specialized kernels as SV-Sim, and global-qubit gates handled by the
// traditional pack-exchange-compute scheme over two-sided messages. The
// difference from SV-Sim's PGAS backends is exactly the communication
// mechanism, which is what the paper's comparison isolates.
type Simulator struct {
	cfg Config
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
	// checkpoint every that many gates (same format as the core
	// backends, see internal/ckpt).
	CheckpointEvery int
	// CheckpointDir is the checkpoint base directory.
	CheckpointDir string
	// CheckpointAsync hands checkpoint serialization to a background
	// writer goroutine: the fleet quiesces only long enough to capture
	// copy-on-write payloads, then resumes compute while the writer
	// serializes. The baseline has no write tracking, so every async
	// checkpoint is full.
	CheckpointAsync bool
	// Resume restores from a checkpoint directory before executing.
	Resume string
	// Init, if non-nil, warm-starts the run from a resharded logical
	// state (elastic restore, see ckpt.ReshardLogical) instead of |0..0>.
	// Applied before Resume.
	Init *ckpt.WarmStart
	// Stop, if non-nil, is polled at checkpoint boundaries; once it
	// reports true the fleet writes one final checkpoint there and
	// unwinds with ErrInterrupted (graceful shutdown).
	Stop func() bool
	// Elastic permits recovery at a smaller fleet: when a rank is killed
	// and the latest checkpoint is elastically restorable, the run is
	// resharded onto Ranks/2 ranks instead of restarting at full size.
	Elastic bool
	// Fault injects deterministic faults; the baseline supports barrier
	// events (kill/delay a rank at its n-th barrier).
	Fault *fault.Injector
	// MaxRestarts bounds checkpoint restarts after a rank failure.
	MaxRestarts int
	// Topology groups ranks into nodes (see sched.Topology). The remap
	// simulator then orders each remap's bit swaps intra-node first,
	// elides the folded initial remaps, and splits its message volume
	// into intra-node and inter-node bytes. The final state is identical
	// to the flat run; the zero value is flat.
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
}

// New creates a baseline simulator.
func New(cfg Config) *Simulator { return &Simulator{cfg: cfg} }

// ErrInterrupted is the terminal error of a run stopped by Config.Stop,
// mirroring core.ErrInterrupted for the baseline. When checkpointing was
// configured a final checkpoint was published first.
var ErrInterrupted = errors.New("mpibase: run interrupted by shutdown request")

// stopVote reaches fleet consensus on the stop request inside the SPMD
// region: ranks race the signal handler, so individual reads may
// disagree; the all-reduce makes every rank act identically at the same
// cut point. Only called at sites every rank reaches together.
func (s *Simulator) stopVote(r *Rank) bool {
	if s.cfg.Stop == nil {
		return false
	}
	var v float64
	if s.cfg.Stop() {
		v = 1
	}
	return r.AllReduceSum(v) > 0
}

type mpiRun struct {
	local *statevec.State
	rng   *rand.Rand
	draws int64 // uniform variates consumed, for checkpointed RNG replay
	cbits uint64
	extra statevec.Stats
	pack  []float64 // 2S pack buffer (re then im)

	// trk is this rank's trace track (nil when tracing is off); spanned
	// is set by an exec path that emitted its own phase sub-spans, so the
	// outer loop skips the parent gate span (it would double-count).
	trk     *obs.Track
	spanned bool
	_       [64]byte
}

// draw consumes one uniform variate from the replicated stream.
func (run *mpiRun) draw() float64 {
	run.draws++
	return run.rng.Float64()
}

// Run executes the circuit and returns the gathered result. With a fault
// injector attached, a killed rank aborts the fleet; when checkpointing
// is configured the run restarts from the latest complete checkpoint, up
// to MaxRestarts times, before reporting a structured RunFailure.
func (s *Simulator) Run(c *circuit.Circuit) (*Result, error) {
	p := s.cfg.Ranks
	if p < 1 {
		p = 1
	}
	if p&(p-1) != 0 {
		return nil, fmt.Errorf("mpibase: rank count %d is not a power of two", p)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := c.NumQubits
	if n < 1 || 1<<uint(n-1) < p {
		return nil, fmt.Errorf("mpibase: %d ranks need more qubits than %d", p, n)
	}
	// Compile once, outside the recovery loop: restarts re-execute the
	// same immutable plan. The baseline executes gate-indexed (it does
	// not walk the plan's steps), but compiling through the shared
	// pipeline gives it the same fusion pass, plan fingerprint, and cache
	// as every other backend.
	cp, cst, err := compile.Compile(c, compile.Config{
		Fuse:    s.cfg.Fuse,
		Sched:   sched.Naive,
		PEs:     p,
		Cache:   s.cfg.Plans,
		Metrics: s.cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	c = cp.Circuit
	var mFailures, mRecoveries *obs.Counter
	if s.cfg.Metrics != nil {
		mFailures = s.cfg.Metrics.Counter(obs.MetricPEFailures)
		mRecoveries = s.cfg.Metrics.Counter(obs.MetricRecoveries)
	}
	resume := s.cfg.Resume
	recovered, attempts := 0, 0
	for {
		attempts++
		s.cfg.Flight.Record(-1, obs.EventRunStart, "mpi", int64(attempts))
		res, err := s.runOnce(cp, p, resume)
		if err == nil {
			res.Recoveries = recovered
			res.Compile = cst
			return res, nil
		}
		var ke *fault.KillError
		if !errors.As(err, &ke) {
			return nil, err // not a rank failure: terminal
		}
		s.cfg.Flight.Record(-1, obs.EventRunFailed, err.Error(), int64(attempts))
		mFailures.Add(1)
		if s.cfg.CheckpointDir == "" || recovered >= s.cfg.MaxRestarts {
			return nil, &RunFailure{Attempts: attempts, Cause: err}
		}
		dir, m, ok, lerr := ckpt.Latest(s.cfg.CheckpointDir)
		if lerr != nil || !ok {
			return nil, &RunFailure{Attempts: attempts, Cause: err}
		}
		if s.cfg.Elastic && p > 1 && ckpt.ElasticRestorable(m) == nil {
			res, eerr := s.runElastic(c, dir, m, p/2)
			if eerr != nil {
				return nil, &RunFailure{Attempts: attempts + 1, Cause: eerr}
			}
			res.Recoveries = recovered + 1
			res.Compile = cst
			mRecoveries.Add(1)
			return res, nil
		}
		resume = dir
		recovered++
		mRecoveries.Add(1)
		s.cfg.Flight.Record(-1, obs.EventRestart, "resume from "+dir, int64(recovered))
	}
}

// runOnce is one execution attempt, optionally restoring from a resume
// checkpoint first.
func (s *Simulator) runOnce(cp *compile.CompiledPlan, p int, resume string) (*Result, error) {
	c, planFP := cp.Circuit, cp.PlanFP
	n := c.NumQubits
	dim := 1 << uint(n)
	S := dim / p
	localBits := n - bits.Len(uint(p-1))

	parts := make([][2][]float64, p)
	runs := make([]mpiRun, p)
	for r := 0; r < p; r++ {
		parts[r] = [2][]float64{make([]float64, S), make([]float64, S)}
		runs[r] = mpiRun{
			local: &statevec.State{
				N: localBits, Dim: S,
				Re: parts[r][0], Im: parts[r][1],
				Base:  r * S,
				Style: s.cfg.Style,
			},
			rng:  rand.New(rand.NewSource(s.cfg.Seed)),
			pack: make([]float64, 2*S),
		}
	}
	parts[0][0][0] = 1 // |0...0>

	if ws := s.cfg.Init; ws != nil {
		if ws.State.Dim != dim {
			return nil, fmt.Errorf("mpibase: warm start holds %d amplitudes, run needs %d", ws.State.Dim, dim)
		}
		for r := 0; r < p; r++ {
			copy(parts[r][0], ws.State.Re[r*S:(r+1)*S])
			copy(parts[r][1], ws.State.Im[r*S:(r+1)*S])
		}
		for r := range runs {
			runs[r].cbits = ws.Cbits
			for i := int64(0); i < ws.Draws; i++ {
				runs[r].rng.Float64()
			}
			runs[r].draws = ws.Draws
		}
	}

	startGate := 0
	if resume != "" {
		dir, m, err := ckpt.Resolve(resume)
		if err != nil {
			return nil, err
		}
		if err := s.validateResume(m, c, p, planFP); err != nil {
			return nil, err
		}
		links, err := ckpt.Chain(dir, m)
		if err != nil {
			return nil, err
		}
		for r := 0; r < p; r++ {
			st, err := ckpt.RestoreShardChain(links, r, localBits)
			if err != nil {
				return nil, err
			}
			copy(parts[r][0], st.Re)
			copy(parts[r][1], st.Im)
		}
		for r := range runs {
			runs[r].cbits = m.Cbits
			for i := int64(0); i < m.Draws; i++ {
				runs[r].rng.Float64()
			}
			runs[r].draws = m.Draws
		}
		startGate = m.Step
		s.cfg.Flight.Record(-1, obs.EventRestore, dir, int64(m.Step))
	}

	comm := NewComm(p)
	comm.SetMetrics(s.cfg.Metrics)
	comm.SetFault(s.cfg.Fault)
	comm.SetRecorder(s.cfg.Flight)
	cw := s.newMpiCkpt(c, p, planFP)
	gm := newGateObs(s.cfg.Metrics)
	eng := &mpiEngine{n: n, p: p, S: S, localBits: localBits, dim: dim}

	start := time.Now()
	runErr := comm.RunChecked(func(r *Rank) {
		run := &runs[r.R]
		trk := s.cfg.Trace.Track(r.R)
		run.trk = trk
		for i := startGate; i < len(c.Ops); i++ {
			if i > startGate && cw.due(i) {
				stopNow := s.stopVote(r)
				if trk != nil {
					k0 := time.Now()
					cw.write(r, run, i, i)
					trk.SpanAt("checkpoint", k0, time.Now(),
						obs.SpanArgs{Kind: "checkpoint", Phase: obs.PhaseCheckpoint})
				} else {
					cw.write(r, run, i, i)
				}
				if stopNow {
					r.fail(ErrInterrupted)
				}
			}
			op := &c.Ops[i]
			if op.Cond != nil {
				mask := uint64(1)<<uint(op.Cond.Width) - 1
				if (run.cbits>>uint(op.Cond.Offset))&mask != op.Cond.Value {
					continue
				}
			}
			if trk == nil && gm == nil {
				eng.exec(r, run, &op.G, cp.Classes[i])
				continue
			}
			c0 := comm.StatsOf(r.R)
			g0 := time.Now()
			eng.exec(r, run, &op.G, cp.Classes[i])
			g1 := time.Now()
			gm.observe(op.G.Kind, g1.Sub(g0))
			if run.spanned {
				run.spanned = false // sub-spans already cover this gate
			} else if trk != nil {
				trk.SpanAt(gateLabel(&op.G), g0, g1, spanArgs(&op.G, c0, comm.StatsOf(r.R)))
			}
		}
	})
	elapsed := time.Since(start)
	if ferr := cw.finish(); runErr == nil {
		runErr = ferr
	}
	if runErr != nil {
		return nil, runErr
	}

	st := statevec.New(n)
	for r := 0; r < p; r++ {
		copy(st.Re[r*S:], parts[r][0])
		copy(st.Im[r*S:], parts[r][1])
	}
	res := &Result{
		State:   st,
		Cbits:   runs[0].cbits,
		MPI:     comm.TotalStats(),
		Elapsed: elapsed,
		Ranks:   p,
	}
	for r := range runs {
		res.SV.Add(runs[r].local.Stats)
		res.SV.Add(runs[r].extra)
	}
	if cw != nil {
		res.Ckpt = cw.stats
	}
	if s.cfg.Trace != nil || s.cfg.Metrics != nil {
		res.Mem = obs.TakeMemSnapshot()
	}
	return res, nil
}

// RunElastic resumes circuit c from a checkpoint taken at a different
// fleet size: the checkpoint (written at m.PEs ranks) is resharded onto
// newRanks ranks and the residual gate stream executes there. The
// circuit must be the one the checkpoint was taken from; it is compiled
// exactly as Run compiles it (fusion under sched.Naive is
// rank-independent, so the gate indices match the manifest's OpsDone).
func (s *Simulator) RunElastic(c *circuit.Circuit, resume string, newRanks int) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	dir, m, err := ckpt.Resolve(resume)
	if err != nil {
		return nil, err
	}
	if m.Backend != "mpi" {
		return nil, fmt.Errorf("mpibase: checkpoint was taken by backend %q, resuming on %q", m.Backend, "mpi")
	}
	if m.NumQubits != c.NumQubits {
		return nil, fmt.Errorf("mpibase: checkpoint holds %d qubits, circuit has %d", m.NumQubits, c.NumQubits)
	}
	cp, _, err := compile.Compile(c, compile.Config{
		Fuse:    s.cfg.Fuse,
		Sched:   sched.Naive,
		PEs:     m.PEs,
		Cache:   s.cfg.Plans,
		Metrics: s.cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	if got := ckpt.Fingerprint(cp.Circuit); m.CircuitHash != got {
		return nil, fmt.Errorf("mpibase: checkpoint was taken for circuit %q (hash %016x), current circuit hashes %016x",
			m.Circuit, m.CircuitHash, got)
	}
	if err := ckpt.ElasticRestorable(m); err != nil {
		return nil, err
	}
	return s.runElastic(cp.Circuit, dir, m, newRanks)
}

// runElastic reshards a resolved checkpoint onto newRanks ranks and runs
// the residual gate stream of the (already compiled) circuit c there.
func (s *Simulator) runElastic(c *circuit.Circuit, dir string, m *ckpt.Manifest, newRanks int) (*Result, error) {
	if newRanks < 1 || newRanks&(newRanks-1) != 0 {
		return nil, fmt.Errorf("mpibase: elastic rank count %d is not a power of two", newRanks)
	}
	ws, err := ckpt.ReshardLogical(dir, m)
	if err != nil {
		return nil, err
	}
	residual, err := ckpt.ResidualCircuit(c, m)
	if err != nil {
		return nil, err
	}
	s.cfg.Flight.Record(-1, obs.EventElastic,
		fmt.Sprintf("reshard %d -> %d ranks at gate %d", m.PEs, newRanks, m.OpsDone), int64(newRanks))
	ecfg := s.cfg
	ecfg.Ranks = newRanks
	// The residual stream is already fused; re-running the pass (or
	// reusing the full-circuit plan cache) would corrupt gate indexing.
	ecfg.Fuse = false
	ecfg.Plans = nil
	ecfg.Topology = sched.Topology{}
	ecfg.Resume = ""
	ecfg.Init = ws
	ecfg.Elastic = false
	if s.cfg.CheckpointDir != "" {
		ecfg.CheckpointDir = filepath.Join(s.cfg.CheckpointDir, fmt.Sprintf("elastic-p%d", newRanks))
	}
	res, err := New(ecfg).Run(residual)
	if err != nil {
		return nil, err
	}
	res.Ranks = newRanks
	return res, nil
}

// validateResume rejects a resume manifest that does not match this run.
func (s *Simulator) validateResume(m *ckpt.Manifest, c *circuit.Circuit, p int, planFP uint64) error {
	if m.Backend != "mpi" {
		return fmt.Errorf("mpibase: checkpoint was taken by backend %q, resuming on %q", m.Backend, "mpi")
	}
	if m.PEs != p {
		return fmt.Errorf("mpibase: checkpoint used %d ranks, run has %d", m.PEs, p)
	}
	if m.NumQubits != c.NumQubits {
		return fmt.Errorf("mpibase: checkpoint holds %d qubits, circuit has %d", m.NumQubits, c.NumQubits)
	}
	if got := ckpt.Fingerprint(c); m.CircuitHash != got {
		return fmt.Errorf("mpibase: checkpoint was taken for circuit %q (hash %016x), current circuit hashes %016x",
			m.Circuit, m.CircuitHash, got)
	}
	if m.PlanFingerprint != 0 && planFP != 0 && m.PlanFingerprint != planFP {
		return fmt.Errorf("mpibase: checkpoint was taken under plan %016x, current compile produced %016x",
			m.PlanFingerprint, planFP)
	}
	return nil
}

type mpiEngine struct {
	n, p, S, localBits, dim int
}

// xMatrix is the unitary of the X a RESET applies after measuring 1.
var xMatrix = gate.Unitary(gate.NewX(0))

// exec runs one op; cls is its precomputed classification (nil for the
// kinds the compile pipeline does not classify).
func (e *mpiEngine) exec(r *Rank, run *mpiRun, g *gate.Gate, cls *gate.Class) {
	switch g.Kind {
	case gate.BARRIER:
		return
	case gate.MEASURE:
		out := e.measure(r, run, int(g.Qubits[0]))
		if out == 1 {
			run.cbits |= uint64(1) << uint(g.Cbit)
		} else {
			run.cbits &^= uint64(1) << uint(g.Cbit)
		}
		return
	case gate.RESET:
		if q := int(g.Qubits[0]); e.measure(r, run, q) == 1 {
			x := gate.NewX(q)
			e.exec(r, run, &x, &gate.Class{Targets: []int{q}, U: xMatrix})
		}
		return
	}
	if cls == nil || cls.Local(e.localBits) {
		// The partition is a window of the state (base rank*S): the
		// ordinary kernels resolve global controls and diagonal targets
		// against it.
		run.local.Apply(g)
		r.Barrier()
		return
	}
	if run.trk != nil {
		e.applyGroupExchangeTraced(r, run, cls)
		b0 := time.Now()
		r.Barrier()
		run.trk.SpanAt("barrier", b0, time.Now(),
			obs.SpanArgs{Kind: "barrier", Phase: obs.PhaseBarrier, Barriers: 1})
		run.spanned = true
		return
	}
	e.applyGroupExchange(r, run, cls)
	r.Barrier()
}

// applyGroupExchange is the traditional global-qubit strategy: the ranks
// whose ids differ only in the gate's global target bits form a group;
// every member packs its whole partition into one coarse message, sends it
// to every other member, and then computes its own new partition from the
// received snapshots. This is the "pack small messages into coarser
// transportation" pattern whose waiting and staging costs the paper calls
// out (§1, §2.1).
func (e *mpiEngine) applyGroupExchange(r *Rank, run *mpiRun, cls *gate.Class) {
	e.packPartition(r, run)
	bufs := e.exchangeGroup(r, run, e.groupMask(cls))
	e.computeExchanged(r, run, cls, bufs)
}

// applyGroupExchangeTraced is applyGroupExchange with phase-attributed
// sub-spans (pack / wire / compute) in place of the single parent gate
// span; the caller sets run.spanned so the outer loop skips the parent.
func (e *mpiEngine) applyGroupExchangeTraced(r *Rank, run *mpiRun, cls *gate.Class) {
	c0 := r.comm.StatsOf(r.R)
	p0 := time.Now()
	e.packPartition(r, run)
	p1 := time.Now()
	run.trk.SpanAt("pack", p0, p1, obs.SpanArgs{
		Kind: "pack", Phase: obs.PhasePack, PackBytes: int64(2*e.S) * 8})
	bufs := e.exchangeGroup(r, run, e.groupMask(cls))
	w1 := time.Now()
	cw := r.comm.StatsOf(r.R)
	run.trk.SpanAt("wire", p1, w1, obs.SpanArgs{
		Kind: "wire", Phase: obs.PhaseWire,
		Msgs:     cw.Messages - c0.Messages,
		MsgBytes: cw.MsgBytes - c0.MsgBytes,
	})
	e.computeExchanged(r, run, cls, bufs)
	run.trk.SpanAt("exchange compute", w1, time.Now(), obs.SpanArgs{
		Kind: "compute", Phase: obs.PhaseCompute})
}

// groupMask returns the rank-space bits that vary across the exchange
// group of a gate's global targets.
func (e *mpiEngine) groupMask(cls *gate.Class) int {
	var mask int
	for _, t := range cls.Targets {
		if t >= e.localBits {
			mask |= 1 << uint(t-e.localBits)
		}
	}
	return mask
}

// packPartition copies the rank's whole partition into its pack buffer:
// one pass over 2S floats (plus modeled staging).
func (e *mpiEngine) packPartition(r *Rank, run *mpiRun) {
	copy(run.pack[:e.S], run.local.Re)
	copy(run.pack[e.S:], run.local.Im)
	r.notePack(int64(2*e.S) * 8)
}

// exchangeGroup sends the packed partition to every group member and
// collects their snapshots.
func (e *mpiEngine) exchangeGroup(r *Rank, run *mpiRun, groupMask int) map[int][]float64 {
	bufs := map[int][]float64{r.R: run.pack}
	for bits := 1; bits <= groupMask; bits++ {
		if bits&^groupMask != 0 {
			continue
		}
		peer := r.R ^ bits
		bufs[peer] = r.SendRecv(peer, run.pack)
		r.notePack(int64(2*e.S) * 8) // unpack pass on arrival
	}
	return bufs
}

// computeExchanged computes the rank's new partition from the group's
// snapshots.
func (e *mpiEngine) computeExchanged(r *Rank, run *mpiRun, cls *gate.Class, bufs map[int][]float64) {
	re, im := run.local.Re, run.local.Im
	off := r.R * e.S
	var cmask int
	for _, c := range cls.Ctrls {
		cmask |= 1 << uint(c)
	}
	sub := cls.U.N
	k := len(cls.Targets)
	// Precompute, for each target assignment b, the XOR to apply to a
	// global index to reach that orbit member, relative to assignment a.
	tbits := make([]int, k)
	for j, t := range cls.Targets {
		tbits[j] = 1 << uint(t)
	}
	var touched int64
	newRe := make([]float64, e.S)
	newIm := make([]float64, e.S)
	copy(newRe, re)
	copy(newIm, im)
	for i := 0; i < e.S; i++ {
		gidx := off + i
		if gidx&cmask != cmask {
			continue
		}
		a := 0
		for j := range tbits {
			if gidx&tbits[j] != 0 {
				a |= 1 << uint(j)
			}
		}
		var sr, si float64
		row := cls.U.Data[a*sub : (a+1)*sub]
		for b := 0; b < sub; b++ {
			v := row[b]
			if v == 0 {
				continue
			}
			// Global index of orbit member b.
			gb := gidx
			for j := range tbits {
				if (a^b)>>uint(j)&1 == 1 {
					gb ^= tbits[j]
				}
			}
			owner := gb >> uint(e.localBits)
			li := gb & (e.S - 1)
			buf := bufs[owner]
			br, bi := buf[li], buf[e.S+li]
			vr, vi := real(v), imag(v)
			sr += vr*br - vi*bi
			si += vr*bi + vi*br
		}
		newRe[i], newIm[i] = sr, si
		touched++
	}
	copy(re, newRe)
	copy(im, newIm)
	run.extra.Gates++
	run.extra.AmpsTouched += touched
	run.extra.BytesTouched += touched * 16
	run.extra.FlopEst += touched * 4 * int64(sub)
}

func (e *mpiEngine) measure(r *Rank, run *mpiRun, q int) int {
	off := r.R * e.S
	re, im := run.local.Re, run.local.Im
	var partial float64
	if q < e.localBits {
		bit := 1 << uint(q)
		for i := 0; i < e.S; i++ {
			if i&bit != 0 {
				partial += re[i]*re[i] + im[i]*im[i]
			}
		}
	} else if off>>uint(q)&1 == 1 {
		for i := 0; i < e.S; i++ {
			partial += re[i]*re[i] + im[i]*im[i]
		}
	}
	p1 := r.AllReduceSum(partial)
	rd := run.draw()
	outcome := 0
	if rd < p1 {
		outcome = 1
	}
	pnorm := p1
	if outcome == 0 {
		pnorm = 1 - p1
	}
	scale := 1 / math.Sqrt(pnorm)
	if q < e.localBits {
		bit := 1 << uint(q)
		for i := 0; i < e.S; i++ {
			if (i&bit != 0) == (outcome == 1) {
				re[i] *= scale
				im[i] *= scale
			} else {
				re[i], im[i] = 0, 0
			}
		}
	} else if (off>>uint(q)&1 == 1) == (outcome == 1) {
		for i := 0; i < e.S; i++ {
			re[i] *= scale
			im[i] *= scale
		}
	} else {
		for i := 0; i < e.S; i++ {
			re[i], im[i] = 0, 0
		}
	}
	r.Barrier()
	return outcome
}
