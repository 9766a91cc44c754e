package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"time"

	"svsim/internal/circuit"
	"svsim/internal/ckpt"
	"svsim/internal/compile"
	"svsim/internal/fault"
	"svsim/internal/gate"
	"svsim/internal/obs"
	"svsim/internal/pgas"
	"svsim/internal/sched"
	"svsim/internal/statevec"
)

// Distributed execution engine shared by the scale-up backend (peer
// pointer-array access, Listing 4) and the scale-out backend (SHMEM
// one-sided access, Listing 5). In this reproduction both device classes
// are emulated by goroutine PEs over the instrumented symmetric heap; the
// two backends differ in which platform constants the performance model
// applies to the measured traffic (NVLink/NVSwitch vs network SHMEM).
//
// The state vector is partitioned in natural array order: PE r owns global
// amplitudes [r*S, (r+1)*S) with S = 2^n / P — a window of the state with
// base r*S. A gate that couples no amplitudes across partitions (diagonal,
// or every target below localBits = n - log2(P); controls anywhere) runs
// through the ordinary kernels on that window; a gate with a target on a
// higher qubit incurs the paper's fine-grained remote traffic.

// distSim is one distributed run in progress.
type distSim struct {
	name      string
	n         int // qubits
	p         int // PEs
	S         int // amplitudes per PE
	localBits int // n - log2 p
	dim       int
	coalesced bool
	style     statevec.KernelStyle

	comm       *pgas.Comm
	svRe, svIm *pgas.SymF64
	bound      []boundDistGate
	perPE      []peRun

	ck    *ckptWriter // nil when checkpointing is off
	start int         // first gate index to execute (non-zero on resume)
	stop  *StopLatch  // graceful-shutdown latch, nil when unused

	trace *obs.Tracer // nil when tracing is off
	gm    *gateObs    // nil when metrics are off
}

type boundDistGate struct {
	g    gate.Gate
	cond *circuit.Condition
	// cls is set for gates that need the remote paths — some target
	// pairs amplitudes across partitions — and nil for everything the
	// partition window applies on its own (the upload step of Listing
	// 4/5: the circuit is transferred to the device once, with
	// everything derivable done up front).
	cls *gate.Class
}

// peRun is the per-PE mutable execution state.
type peRun struct {
	local *statevec.State // wrapper over the PE's partition
	rng   *rand.Rand
	draws int64 // uniform variates consumed, for checkpointed RNG replay
	cbits uint64
	extra statevec.Stats // state-vector work done outside the wrapper
	bufRe []float64      // coalesced-exchange scratch
	bufIm []float64
	_     [64]byte
}

// draw consumes one uniform variate from the replicated stream.
func (run *peRun) draw() float64 {
	run.draws++
	return run.rng.Float64()
}

func newDistSim(name string, cfg Config, cp *compile.CompiledPlan) (*distSim, error) {
	c := cp.Circuit
	p := cfg.PEs
	if p < 1 {
		p = 1
	}
	n := c.NumQubits
	d := &distSim{
		name:      name,
		n:         n,
		p:         p,
		dim:       1 << uint(n),
		coalesced: cfg.Coalesced,
		style:     cfg.Style,
	}
	d.S = d.dim / p
	d.localBits = n - bits.Len(uint(p-1))
	d.comm = pgas.NewComm(p)
	d.comm.SetFault(cfg.Fault)
	d.comm.SetTimeouts(cfg.Timeouts)
	d.comm.SetRecorder(cfg.Flight)
	d.ck = newCkptWriter(cfg, name, c, p, cp.PlanFP)
	d.stop = cfg.Stop
	d.trace = cfg.Trace
	if cfg.Metrics != nil {
		d.comm.SetMetrics(cfg.Metrics)
		d.gm = newGateObs(cfg.Metrics)
	}
	d.svRe = d.comm.NewSymF64(d.S)
	d.svIm = d.comm.NewSymF64(d.S)
	d.svRe.PartitionUnsafe(0)[0] = 1 // |0...0>

	d.bound = make([]boundDistGate, len(c.Ops))
	for i := range c.Ops {
		g := c.Ops[i].G
		bd := boundDistGate{g: g, cond: c.Ops[i].Cond}
		switch {
		case cp.Classes[i] != nil && !cp.Classes[i].Local(d.localBits):
			bd.cls = cp.Classes[i]
		case g.Kind == gate.RESET && int(g.Qubits[0]) >= d.localBits:
			// The X a RESET applies after measuring 1 on a global qubit.
			x := gate.NewX(int(g.Qubits[0]))
			cls := gate.Classify(&x)
			bd.cls = &cls
		}
		d.bound[i] = bd
	}

	d.perPE = make([]peRun, p)
	for r := 0; r < p; r++ {
		d.perPE[r] = peRun{
			local: &statevec.State{
				N:     d.localBits,
				Dim:   d.S,
				Re:    d.svRe.PartitionUnsafe(r),
				Im:    d.svIm.PartitionUnsafe(r),
				Base:  r * d.S,
				Style: cfg.Style,
			},
			rng:   newRNG(cfg.Seed),
			bufRe: make([]float64, d.S),
			bufIm: make([]float64, d.S),
		}
	}
	if cfg.Init != nil {
		// Elastic warm start: scatter the full logical state across this
		// fleet's partitions in place of |0...0> (natural array order, so
		// rank r owns the contiguous global range [r*S, (r+1)*S)).
		ws := cfg.Init
		if ws.State == nil || ws.State.N != n {
			return nil, fmt.Errorf("core: warm-start state does not match circuit (%d qubits)", n)
		}
		for r := 0; r < p; r++ {
			copy(d.svRe.PartitionUnsafe(r), ws.State.Re[r*d.S:(r+1)*d.S])
			copy(d.svIm.PartitionUnsafe(r), ws.State.Im[r*d.S:(r+1)*d.S])
		}
		for r := range d.perPE {
			run := &d.perPE[r]
			run.cbits = ws.Cbits
			replayDraws(run.rng, ws.Draws)
			run.draws = ws.Draws
		}
	}
	if cfg.Resume != "" {
		dir, m, err := resolveResume(cfg.Resume)
		if err != nil {
			return nil, err
		}
		if err := validateManifest(m, name, c, p, cfg.Sched, cp.PlanFP); err != nil {
			return nil, err
		}
		if err := restoreShards(dir, m, d.svRe, d.svIm, d.localBits); err != nil {
			return nil, err
		}
		for r := range d.perPE {
			run := &d.perPE[r]
			run.cbits = m.Cbits
			replayDraws(run.rng, m.Draws)
			run.draws = m.Draws
		}
		d.start = m.Step
		cfg.Flight.Record(-1, obs.EventRestore, dir, int64(m.Step))
	}
	return d, nil
}

// run executes the bound circuit SPMD and returns the gathered result.
func (d *distSim) run() (*Result, error) {
	start := time.Now()
	err := d.comm.RunChecked(func(pe *pgas.PE) {
		run := &d.perPE[pe.Rank]
		trk := d.trace.Track(pe.Rank)
		for t := d.start; t < len(d.bound); t++ {
			if t > d.start && d.ck.due(t) {
				// ops == t: under the naive schedule every loop index is
				// exactly one executable-stream op.
				stopNow := d.stop.vote(pe)
				if trk != nil {
					k0 := time.Now()
					d.ck.write(pe, run.local, t, t, run.cbits, run.draws, nil, nil)
					trk.SpanAt("checkpoint", k0, time.Now(),
						obs.SpanArgs{Kind: "checkpoint", Phase: obs.PhaseCheckpoint})
				} else {
					d.ck.write(pe, run.local, t, t, run.cbits, run.draws, nil, nil)
				}
				if stopNow {
					pe.Fail(ErrInterrupted)
				}
			}
			bg := &d.bound[t]
			if !condSatisfied(bg.cond, run.cbits) {
				// All PEs hold identical cbits, so all skip together; no
				// barrier is needed for a uniformly skipped gate.
				continue
			}
			if trk == nil && d.gm == nil {
				d.execOp(pe, run, bg)
				continue
			}
			// Observed path: time the gate and attribute the one-sided
			// traffic delta of this PE's counters to the span.
			c0 := d.comm.StatsOf(pe.Rank)
			g0 := time.Now()
			d.execOp(pe, run, bg)
			g1 := time.Now()
			d.gm.observe(bg.g.Kind, g1.Sub(g0))
			if trk != nil {
				c1 := d.comm.StatsOf(pe.Rank)
				trk.SpanAt(gateLabel(&bg.g), g0, g1, obs.SpanArgs{
					Kind:        bg.g.Kind.String(),
					Qubits:      qubitList(&bg.g),
					LocalBytes:  c1.LocalBytes - c0.LocalBytes,
					RemoteBytes: c1.RemoteBytes - c0.RemoteBytes,
					LocalMsgs:   (c1.LocalGets + c1.LocalPuts) - (c0.LocalGets + c0.LocalPuts),
					RemoteMsgs:  c1.RemoteMessages() - c0.RemoteMessages(),
					Barriers:    c1.Barriers - c0.Barriers,
				})
			}
		}
	})
	if ferr := d.ck.finish(); err == nil {
		err = ferr
	}
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	st := statevec.New(d.n)
	d.svRe.GatherInto(st.Re)
	d.svIm.GatherInto(st.Im)
	res := &Result{
		Backend: d.name,
		State:   st,
		Cbits:   d.perPE[0].cbits,
		Comm:    d.comm.TotalStats(),
		Elapsed: elapsed,
		PEs:     d.p,
	}
	if d.ck != nil {
		res.Ckpt = d.ck.stats
	}
	for r := range d.perPE {
		res.SV.Add(d.perPE[r].local.Stats)
		res.SV.Add(d.perPE[r].extra)
	}
	if d.trace != nil || d.gm != nil {
		res.Mem = obs.TakeMemSnapshot()
	}
	return res, nil
}

func (d *distSim) execOp(pe *pgas.PE, run *peRun, bg *boundDistGate) {
	g := &bg.g
	switch g.Kind {
	case gate.BARRIER:
		return
	case gate.MEASURE:
		out := d.measure(pe, run, int(g.Qubits[0]))
		run.cbits = setCbit(run.cbits, int(g.Cbit), out)
		return
	case gate.RESET:
		if d.measure(pe, run, int(g.Qubits[0])) == 1 {
			d.execOp(pe, run, &boundDistGate{g: gate.NewX(int(g.Qubits[0])), cls: bg.cls})
		}
		return
	}
	cls := bg.cls
	if cls == nil {
		// The partition is a window of the state: global controls and
		// diagonal targets resolve against its base inside the kernel.
		run.local.Apply(g)
		pe.Barrier()
		return
	}
	if len(cls.Targets) == 1 && d.coalesced {
		d.applyRemoteCoalesced(pe, run, cls)
		return // barriers inside
	}
	d.applyRemoteGeneric(pe, run, cls)
	pe.Barrier()
}

// applyRemoteGeneric is the paper's fine-grained remote path: the work
// index space is chunked evenly across PEs; each PE gathers the amplitudes
// of its orbits one-sided, applies the small unitary, and scatters the
// results back (Listing 5's nvshmem_double_g / nvshmem_double_p loop).
func (d *distSim) applyRemoteGeneric(pe *pgas.PE, run *peRun, cls *gate.Class) {
	bits := append(append([]int(nil), cls.Ctrls...), cls.Targets...)
	sort.Ints(bits)
	nb := len(bits)
	var cmask int
	for _, c := range cls.Ctrls {
		cmask |= 1 << uint(c)
	}
	k := len(cls.Targets)
	sub := 1 << uint(k)
	offsets := make([]int, sub)
	for a := 0; a < sub; a++ {
		o := 0
		for j, t := range cls.Targets {
			if a>>uint(j)&1 == 1 {
				o |= 1 << uint(t)
			}
		}
		offsets[a] = o
	}
	ampR := make([]float64, sub)
	ampI := make([]float64, sub)
	outR := make([]float64, sub)
	outI := make([]float64, sub)

	total := d.dim >> uint(nb)
	chunk := (total + d.p - 1) / d.p
	lo := pe.Rank * chunk
	hi := lo + chunk
	if hi > total {
		hi = total
	}
	var touched int64
	for i := lo; i < hi; i++ {
		base := i
		for _, b := range bits {
			base = statevec.InsertZeroBit(base, b)
		}
		base |= cmask // operand enumeration: targets stay 0, controls pin to 1
		for a := 0; a < sub; a++ {
			gidx := base | offsets[a]
			ampR[a] = pe.GlobalGet(d.svRe, gidx)
			ampI[a] = pe.GlobalGet(d.svIm, gidx)
		}
		for a := 0; a < sub; a++ {
			var sr, si float64
			row := cls.U.Data[a*sub : (a+1)*sub]
			for b, v := range row {
				vr, vi := real(v), imag(v)
				sr += vr*ampR[b] - vi*ampI[b]
				si += vr*ampI[b] + vi*ampR[b]
			}
			outR[a], outI[a] = sr, si
		}
		for a := 0; a < sub; a++ {
			gidx := base | offsets[a]
			pe.GlobalPut(d.svRe, gidx, outR[a])
			pe.GlobalPut(d.svIm, gidx, outI[a])
		}
		touched += int64(sub)
	}
	run.extra.Gates++
	run.extra.AmpsTouched += touched
	run.extra.BytesTouched += touched * 16
	run.extra.FlopEst += touched * 4 * int64(sub)
}

// applyRemoteCoalesced handles a 1-target gate on a global qubit by a bulk
// block exchange: each PE fetches its partner's whole partition with one
// coalesced get per array, then updates its own partition locally. This is
// the warp-coalesced NVSHMEM access pattern the paper recommends.
func (d *distSim) applyRemoteCoalesced(pe *pgas.PE, run *peRun, cls *gate.Class) {
	q := cls.Targets[0]
	partner := pe.Rank ^ 1<<uint(q-d.localBits)
	pe.GetV(d.svRe, partner, 0, run.bufRe)
	pe.GetV(d.svIm, partner, 0, run.bufIm)
	// All reads must complete before anyone overwrites its partition.
	pe.Barrier()

	off := pe.Rank * d.S
	ownIsOne := off>>uint(q)&1 == 1
	var cmask int
	for _, c := range cls.Ctrls {
		cmask |= 1 << uint(c)
	}
	u := cls.U
	u00r, u00i := real(u.At(0, 0)), imag(u.At(0, 0))
	u01r, u01i := real(u.At(0, 1)), imag(u.At(0, 1))
	u10r, u10i := real(u.At(1, 0)), imag(u.At(1, 0))
	u11r, u11i := real(u.At(1, 1)), imag(u.At(1, 1))
	re := run.local.Re
	im := run.local.Im
	var touched int64
	for i := 0; i < d.S; i++ {
		gidx := off + i
		if gidx&cmask != cmask {
			continue
		}
		if ownIsOne {
			// own amp = a1, partner amp = a0
			r0, i0 := run.bufRe[i], run.bufIm[i]
			r1, i1 := re[i], im[i]
			re[i] = u10r*r0 - u10i*i0 + u11r*r1 - u11i*i1
			im[i] = u10r*i0 + u10i*r0 + u11r*i1 + u11i*r1
		} else {
			r0, i0 := re[i], im[i]
			r1, i1 := run.bufRe[i], run.bufIm[i]
			re[i] = u00r*r0 - u00i*i0 + u01r*r1 - u01i*i1
			im[i] = u00r*i0 + u00i*r0 + u01r*i1 + u01i*r1
		}
		touched++
	}
	run.extra.Gates++
	run.extra.AmpsTouched += touched
	run.extra.BytesTouched += touched * 16
	run.extra.FlopEst += touched * 7
	pe.Barrier()
}

// measure performs a distributed projective measurement: local partial
// probabilities are combined with an all-reduce; every PE draws the same
// uniform number from its replicated stream and collapses its partition.
func (d *distSim) measure(pe *pgas.PE, run *peRun, q int) int {
	off := pe.Rank * d.S
	var partial float64
	re := run.local.Re
	im := run.local.Im
	if q < d.localBits {
		bit := 1 << uint(q)
		for i := 0; i < d.S; i++ {
			if i&bit != 0 {
				partial += re[i]*re[i] + im[i]*im[i]
			}
		}
	} else if off>>uint(q)&1 == 1 {
		for i := 0; i < d.S; i++ {
			partial += re[i]*re[i] + im[i]*im[i]
		}
	}
	p1 := pe.AllReduceSum(partial)
	r := run.draw()
	outcome := 0
	if r < p1 {
		outcome = 1
	}
	pnorm := p1
	if outcome == 0 {
		pnorm = 1 - p1
	}
	scale := 1 / math.Sqrt(pnorm)
	if q < d.localBits {
		bit := 1 << uint(q)
		for i := 0; i < d.S; i++ {
			if (i&bit != 0) == (outcome == 1) {
				re[i] *= scale
				im[i] *= scale
			} else {
				re[i] = 0
				im[i] = 0
			}
		}
	} else if (off>>uint(q)&1 == 1) == (outcome == 1) {
		for i := 0; i < d.S; i++ {
			re[i] *= scale
			im[i] *= scale
		}
	} else {
		for i := 0; i < d.S; i++ {
			re[i] = 0
			im[i] = 0
		}
	}
	run.extra.Gates++
	run.extra.AmpsTouched += int64(d.S)
	run.extra.BytesTouched += int64(d.S) * 16
	pe.Barrier()
	return outcome
}

// runDistOnce builds and executes one attempt of a distributed
// simulation of an already-compiled circuit.
func runDistOnce(name string, cfg Config, cp *compile.CompiledPlan) (*Result, error) {
	if cfg.Sched == sched.Lazy && cfg.PEs > 1 {
		l, err := newLazySim(name, cfg, cp)
		if err != nil {
			return nil, err
		}
		return l.run()
	}
	d, err := newDistSim(name, cfg, cp)
	if err != nil {
		return nil, err
	}
	return d.run()
}

// runDistributed builds and executes a distributed simulation, driving
// the graceful-degradation loop: a recoverable PE failure (injected
// kill, stalled barrier, exhausted retry budget) restarts the run from
// its latest complete checkpoint up to cfg.MaxRestarts times; without a
// checkpoint to restart from, or past the budget, the run reports a
// structured RunFailure.
func runDistributed(name string, cfg Config, c *circuit.Circuit) (*Result, error) {
	if err := checkCircuit(c, 64); err != nil {
		return nil, err
	}
	if err := checkPEs(cfg.PEs, c.NumQubits); err != nil {
		return nil, err
	}
	// Compile once, outside the recovery loop: restarts re-execute the
	// same immutable plan.
	cp, cst, err := compileCircuit(cfg, c, cfg.PEs)
	if err != nil {
		return nil, err
	}
	var mFailures, mRecoveries *obs.Counter
	if cfg.Metrics != nil {
		mFailures = cfg.Metrics.Counter(obs.MetricPEFailures)
		mRecoveries = cfg.Metrics.Counter(obs.MetricRecoveries)
	}
	attempts, recovered := 0, 0
	resumeStep := -1 // step of the checkpoint the current cfg.Resume names
	if cfg.Resume != "" {
		if _, m, rerr := resolveResume(cfg.Resume); rerr == nil {
			resumeStep = m.Step
		}
	}
	for {
		attempts++
		cfg.Flight.Record(-1, obs.EventRunStart, name, int64(attempts))
		res, err := runDistOnce(name, cfg, cp)
		if err == nil {
			res.Recoveries = recovered
			res.Compile = cst
			return res, nil
		}
		var se *ckpt.ShardError
		if errors.As(err, &se) && cfg.Resume != "" && cfg.CheckpointDir != "" {
			// The checkpoint we tried to resume from is torn or corrupt:
			// fall back to the next older complete one. Steps strictly
			// decrease, so this loop terminates without a restart budget.
			cfg.Flight.Record(-1, obs.EventRunFailed, "corrupt checkpoint: "+err.Error(), int64(attempts))
			dir, step, ok := olderCheckpoint(cfg.CheckpointDir, resumeStep)
			if !ok {
				return nil, &RunFailure{Backend: name, Attempts: attempts, Cause: err}
			}
			cfg.Resume = dir
			resumeStep = step
			cfg.Flight.Record(-1, obs.EventRestart, "fallback to "+dir, int64(step))
			continue
		}
		if !recoverable(err) {
			// Setup/validation problems, interrupts, and checkpoint I/O
			// errors are terminal; restarting cannot help.
			return nil, err
		}
		cfg.Flight.Record(-1, obs.EventRunFailed, err.Error(), int64(attempts))
		mFailures.Add(1)
		if cfg.CheckpointDir == "" || recovered >= cfg.MaxRestarts {
			return nil, &RunFailure{Backend: name, Attempts: attempts, Cause: err}
		}
		dir, m, ok, lerr := ckpt.Latest(cfg.CheckpointDir)
		if lerr != nil || !ok {
			return nil, &RunFailure{Backend: name, Attempts: attempts, Cause: err}
		}
		var ke *fault.KillError
		if cfg.Elastic && cfg.PEs > 1 && errors.As(err, &ke) && ckpt.ElasticRestorable(m) == nil {
			// Elastic shrink: instead of restarting the dead rank's fleet
			// at full size, re-shard the checkpoint onto half the PEs and
			// run the residual circuit there.
			res, eerr := runElastic(name, cfg, cp, dir, m, cfg.PEs/2)
			if eerr != nil {
				return nil, &RunFailure{Backend: name, Attempts: attempts + 1, Cause: eerr}
			}
			res.Recoveries = recovered + 1
			res.Compile = cst
			mRecoveries.Add(1)
			return res, nil
		}
		cfg.Resume = dir
		resumeStep = m.Step
		recovered++
		mRecoveries.Add(1)
		cfg.Flight.Record(-1, obs.EventRestart, "resume from "+dir, int64(recovered))
	}
}

// olderCheckpoint returns the newest complete checkpoint strictly older
// than step; a negative step accepts any.
func olderCheckpoint(base string, step int) (string, int, bool) {
	steps, err := ckpt.CompleteSteps(base)
	if err != nil {
		return "", 0, false
	}
	for _, s := range steps { // newest first
		if step < 0 || s < step {
			return ckpt.StepDir(base, s), s, true
		}
	}
	return "", 0, false
}
