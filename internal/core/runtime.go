package core

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"strconv"
	"strings"
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

// The one runtime: every run — single, threaded, scale-up, scale-out and
// the message-passing baseline mpi — is a compiled plan walked by one
// SPMD step loop over a Transport.
//
// The state vector is partitioned in natural array order: rank r owns
// physical amplitudes [r*S, (r+1)*S) with S = 2^n / P, a window of the
// state with base r*S. The plan (internal/sched) decides WHEN amplitudes
// must cross partitions: the naive plan is one gate step per op under the
// identity permutation, so a gate with a pairing target at or above
// localBits = n - log2(P) crosses at that gate; the lazy plan keeps every
// pairing target local and crosses only at its remap steps, each one
// pairwise in-place exchange in fixed-size chunks (exchange.go, over
// compile.CompiledPlan.Exchanges). The transport decides HOW they cross
// — not at all on a one-rank grid (local), one-sided get/put over the
// symmetric heap (pgastransport.go) or two-sided pack–exchange
// (mpitransport.go) — which is exactly the comparison the paper
// isolates; the backend table (backend.go) picks it. A remap's chunk
// crosses by the transport's Wire, inside the one exchange body.
// Everything else (set-up, conditions, measurement, tile groups,
// checkpoint cuts, stop polls, spans, recovery, tear-down) exists once,
// here.
//
// What a grid cannot need is derived from the grid, never configured:
// one rank syncs with nobody (no grid sync, no all-reduce, no checkpoint
// barrier) and its partition IS the result state; a plan that never
// leaves the identity permutation executes its gates as written and
// records no permutation in its checkpoints.

// Transport is how amplitudes cross partitions. All methods except
// Partition run inside the SPMD region on the calling rank's goroutine,
// collectively: every rank reaches the same call at the same plan step.
type Transport interface {
	// Partition returns the storage of rank's partition: S reals and S
	// imaginaries, zeroed. The transport owns the memory (a symmetric
	// heap, or plain per-rank slices).
	Partition(rank int) (re, im []float64)
	// RemoteGate applies g, a gate at its physical positions one of whose
	// pairing targets sits at or above LocalBits: it brings the operands
	// into a scratch window where those targets are local, runs the kernel
	// there (State.ApplyTile) and moves the results back, synchronizing
	// whatever it needs mid-gate; the loop's grid sync closes the gate. It
	// reports whether it recorded sub-spans of its own through tr, in
	// which case the loop drops the parent span.
	RemoteGate(pe *pgas.PE, r *Rank, g *gate.Gate, tr StepTrace) bool
	// Wire moves one chunk of a remap exchange (exchange.go), the only
	// part of a remap that differs between transports: buf, the chunk
	// this rank packed for peer, goes to peer, and Wire returns the chunk
	// peer packed for this rank in the same step. step counts the
	// attempt's exchange steps, equal on every rank. On return buf may be
	// repacked; the returned chunk stays valid until the rank's next Wire.
	// It runs on a helper goroutine while the rank packs its next chunk.
	Wire(pe *pgas.PE, peer, step int, buf []float64) []float64
	// Counters samples rank's cumulative traffic counters as span
	// arguments; the loop attributes the difference of two samples to
	// the span between them.
	Counters(rank int) obs.SpanArgs
}

// newTransport builds the transport of one execution attempt over its
// grid; a restart or an elastic shrink builds a fresh one.
type newTransport func(g *Grid) Transport

// local is the transport of a one-rank grid: the partition is the whole
// state in plain slices and no amplitude ever crosses, so the plan
// (localBits == n: gate steps only) can reach neither exchange routine.
type local struct{ *Grid }

func localTransport(g *Grid) Transport { return local{g} }

func (t local) Partition(int) (re, im []float64) {
	return make([]float64, t.S), make([]float64, t.S)
}

func (local) RemoteGate(*pgas.PE, *Rank, *gate.Gate, StepTrace) bool {
	panic("core: remote gate on a one-rank grid")
}

func (local) Wire(*pgas.PE, int, int, []float64) []float64 {
	panic("core: remap on a one-rank grid")
}

func (local) Counters(int) obs.SpanArgs { return obs.SpanArgs{} }

// Grid is what a transport is built over: the SPMD fleet, the
// partition geometry, and the compiled plan whose remaps it realizes.
type Grid struct {
	Comm      *pgas.Comm
	Compiled  *compile.CompiledPlan
	N         int // qubits
	P         int // ranks
	S         int // amplitudes per rank
	LocalBits int // n - log2 P
	Start     int // first plan step the attempt executes
	Coalesced bool
	Metrics   *obs.Metrics // nil when no registry is attached
}

// Rank is the per-rank mutable state of a run. Each rank replays its own
// copy of the classical side (cbits, RNG, permutation), so no cross-rank
// bookkeeping writes exist.
type Rank struct {
	// Local is the rank's partition as a window of the state.
	Local *statevec.State
	// Extra counts state-vector work done outside Local's kernels.
	Extra statevec.Stats

	rng   *rand.Rand
	draws int64 // uniform variates consumed, for checkpointed RNG replay
	cbits uint64
	perm  circuit.Permutation
	// Diagonal-run scratch, sized on first use: the normal form of the
	// run being prepared, and one prepared slot per run in flight (one,
	// or as many as a tiled group holds).
	terms  []gate.DiagTerm
	tables []*statevec.DiagTables
	// Tile-group scratch: the members of the group being applied.
	members []tileMember
	// Remap exchange scratch (exchange.go): two chunk pack buffers,
	// sized on first use, and the exchange steps run so far.
	xpack [2][]float64
	xstep int
	_     [64]byte
}

// tileMember is one member of a tiled group: a gate at its physical
// positions whose condition holds, or a prepared diagonal run.
type tileMember struct {
	g   gate.Gate
	run *statevec.DiagTables
}

// draw consumes one uniform variate from the replicated stream.
func (r *Rank) draw() float64 {
	r.draws++
	return r.rng.Float64()
}

// restore sets the classical side of a rank to a checkpointed or
// warm-started point.
func (r *Rank) restore(cbits uint64, draws int64) {
	r.cbits = cbits
	replayDraws(r.rng, draws)
	r.draws = draws
}

// runtime is one execution attempt in progress.
type runtime struct {
	Grid
	name     string
	c        *circuit.Circuit // executable stream
	plan     *sched.Plan
	identity bool           // the plan never leaves the identity permutation
	gateSync bool           // naive plan on several ranks: a grid sync closes every gate step
	pool     *statevec.Pool // workers splitting each kernel call of the window; nil applies it whole
	t        Transport
	ranks    []Rank

	prefix int // plan steps of the classical prefix a fresh start folded

	ck   *ckptWriter // nil when checkpointing is off
	stop *StopLatch  // graceful-shutdown latch, nil when unused

	trace      *obs.Tracer
	metrics    *obs.Metrics
	gm         *gateObs
	flight     *obs.FlightRecorder
	remapBytes *obs.Histogram // per-rank bytes moved by each remap
	remapCount *obs.Counter
}

// newRuntime sets one attempt up: the fleet, the transport's partitions
// holding the basis state the plan's classical prefix leaves (or the warm
// start, or checkpoint m in dir — taken on this grid size), and the
// per-rank classical state.
//
// Only a fresh start folds the prefix: on |0...0> its gates, aliases and
// remaps only move the one amplitude 1 (the x and swap kernels copy 1.0
// and +0.0, bit for bit), so the attempt writes that amplitude where the
// prefix would have left it and starts the step loop behind the prefix. A
// resume or a warm start executes every step from its start point: its
// state is not a basis state, and a reshard's residual stream may itself
// open with classical gates.
func newRuntime(name string, cfg Config, cp *compile.CompiledPlan, nt newTransport, dir string, m *ckpt.Manifest) (*runtime, error) {
	c := cp.Circuit
	p := cfg.PEs
	if p < 1 {
		p = 1
	}
	n := c.NumQubits
	rt := &runtime{
		name:     name,
		c:        c,
		plan:     cp.Plan,
		identity: cp.Plan.Remaps == 0 && cp.Plan.Aliases == 0,
		gateSync: cp.Plan.Policy == sched.Naive && p > 1,
		pool:     cfg.Pool,
		stop:     cfg.Stop,
		trace:    cfg.Trace,
		metrics:  cfg.Metrics,
		flight:   cfg.Flight,
	}
	rt.Grid = Grid{
		Comm: pgas.NewComm(p), Compiled: cp,
		N: n, P: p, S: (1 << uint(n)) / p, LocalBits: n - bits.Len(uint(p-1)),
		Coalesced: cfg.Coalesced, Metrics: cfg.Metrics,
	}
	fresh := m == nil && cfg.warm == nil
	if fresh {
		rt.Start, rt.prefix = cp.Plan.Prefix, cp.Plan.Prefix
	}
	if m != nil {
		if err := validateManifest(m, name, c, cfg.Sched, cp.PlanFP); err != nil {
			return nil, err
		}
		if m.Step > len(rt.plan.Steps) {
			return nil, fmt.Errorf("core: checkpoint step %d beyond plan length %d", m.Step, len(rt.plan.Steps))
		}
		rt.Start = m.Step
	}
	rt.Comm.SetFault(cfg.Fault)
	rt.Comm.SetTimeouts(cfg.Timeouts)
	rt.Comm.SetRecorder(cfg.Flight)
	rt.ck = newCkptWriter(cfg, name, c, p, cp.PlanFP)
	if m := cfg.Metrics; m != nil {
		rt.Comm.SetMetrics(m)
		rt.gm = newGateObs(m)
		if cp.Plan.Remaps > 0 {
			rt.remapBytes = m.Histogram(obs.MetricRemapBytes, obs.SizeBuckets())
			rt.remapCount = m.Counter(obs.MetricRemapCount)
		}
	}
	rt.t = nt(&rt.Grid)

	basis, perm := 0, circuit.IdentityPermutation(n)
	if fresh {
		basis, perm = rt.plan.PrefixState(c)
	}
	rt.ranks = make([]Rank, p)
	for r := range rt.ranks {
		re, im := rt.t.Partition(r)
		rt.ranks[r] = Rank{
			Local: &statevec.State{N: rt.LocalBits, Dim: rt.S, Re: re, Im: im, Base: r * rt.S, Style: cfg.Style},
			rng:   newRNG(cfg.Seed),
			perm:  perm.Clone(),
		}
	}
	if fresh {
		at := perm.PhysicalIndex(basis)
		rt.ranks[at/rt.S].Local.Re[at%rt.S] = 1
	}

	if ws := cfg.warm; ws != nil && m == nil {
		// Elastic warm start: scatter the full logical state across this
		// fleet's partitions. The permutation starts as the identity, so
		// logical index == physical index here.
		if ws.State == nil || ws.State.N != n {
			return nil, fmt.Errorf("core: warm-start state does not match circuit (%d qubits)", n)
		}
		for r := range rt.ranks {
			run := &rt.ranks[r]
			copy(run.Local.Re, ws.State.Re[r*rt.S:(r+1)*rt.S])
			copy(run.Local.Im, ws.State.Im[r*rt.S:(r+1)*rt.S])
			run.restore(ws.Cbits, ws.Draws)
		}
	}
	if m != nil {
		// The manifest records where every qubit sat at the cut; a plan
		// that never leaves the identity records nothing.
		perm := circuit.Permutation(m.Perm)
		if len(perm) == 0 && rt.identity {
			perm = circuit.IdentityPermutation(n)
		}
		if len(perm) != n {
			return nil, fmt.Errorf("core: checkpoint permutation has %d entries, want %d", len(perm), n)
		}
		if err := perm.Validate(); err != nil {
			return nil, fmt.Errorf("core: checkpoint permutation invalid: %w", err)
		}
		if err := restoreShards(dir, m, rt.ranks); err != nil {
			return nil, err
		}
		for r := range rt.ranks {
			rt.ranks[r].restore(m.Cbits, m.Draws)
			rt.ranks[r].perm = perm.Clone()
		}
		cfg.Flight.Record(-1, obs.EventRestore, dir, int64(m.Step))
	}
	return rt, nil
}

func remapLabel(swaps []sched.Swap) string {
	var b strings.Builder
	b.WriteString("remap ")
	for i, sw := range swaps {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("b" + strconv.Itoa(sw.Global) + "<->b" + strconv.Itoa(sw.Local))
	}
	return b.String()
}

// opsBefore counts the executable-stream ops completed once plan steps
// [0, si) have run: the gate steps and the aliases (each an absorbed SWAP
// op). Both appear in the plan in executable order, so the count is a
// geometry-independent cut point in the stream: a checkpoint quiesced
// before step si records it as OpsDone, and an elastic restore slices the
// residual circuit there whatever fleet size the plan was compiled for.
func (rt *runtime) opsBefore(si int) int {
	ops := 0
	for i := range rt.plan.Steps[:si] {
		if rt.plan.Steps[i].Kind != sched.StepRemap {
			ops++
		}
	}
	return ops
}

// blockAt returns the 1-based schedule block of plan step si — a remap
// closes the block it belongs to — or 0 for a plan without remaps
// (nothing to attribute to).
func (rt *runtime) blockAt(si int) int {
	if rt.plan.Remaps == 0 {
		return 0
	}
	block := 1
	for i := range rt.plan.Steps[:si] {
		if rt.plan.Steps[i].Kind == sched.StepRemap {
			block++
		}
	}
	return block
}

// run walks the plan SPMD and returns the un-permuted result.
func (rt *runtime) run() (*Result, error) {
	startT := time.Now()
	steps := rt.plan.Steps
	var groups []compile.TileGroup
	if rt.Compiled.Tiles != nil {
		groups = rt.Compiled.Tiles.Groups
	}
	runs := rt.Compiled.Runs
	err := rt.Comm.RunChecked(func(pe *pgas.PE) {
		r := &rt.ranks[pe.Rank]
		tr := StepTrace{trk: rt.trace.Track(pe.Rank), block: rt.blockAt(rt.Start)}
		if pe.Rank == 0 && tr.On() && rt.prefix > 0 {
			now := time.Now()
			tr.label = fmt.Sprintf("classical prefix (%d ops)", rt.opsBefore(rt.prefix))
			tr.Span("", now, now, obs.SpanArgs{Kind: "prefix"})
		}
		gi, ri := 0, 0  // tile group and diagonal run holding (or following) the next step
		cut := rt.Start // step of the latest checkpoint cut (or the start point)
		for si := rt.Start; si < len(steps); {
			cut = rt.cutPoint(pe, r, si, cut, tr)
			for gi < len(groups) && groups[gi].End <= si {
				gi++
			}
			for ri < len(runs) && runs[ri].Step < si {
				ri++
			}
			if gi < len(groups) && groups[gi].Tiled && groups[gi].Start == si {
				// A resume that lands inside a tiled group misses its start
				// and finishes the group per gate (same kernels).
				rt.tileGroup(pe, r, groups[gi], runs[ri:], tr)
				si = groups[gi].End
				continue
			}
			if ri < len(runs) && runs[ri].Step == si && rt.runStep(pe, r, &runs[ri], tr) {
				// Likewise a resume inside a run (a checkpoint of a build
				// that cut there) finishes the run per gate, and so does a
				// gadget this rank's layout cannot pair locally.
				si += runs[ri].Gates
				continue
			}
			st := &steps[si]
			si++
			switch st.Kind {
			case sched.StepGate:
				op := &rt.c.Ops[st.Op]
				if !condSatisfied(op.Cond, r.cbits) {
					// All ranks hold identical cbits, so all skip together.
					continue
				}
				if !tr.On() && rt.gm == nil {
					rt.gateStep(pe, r, st.Op, tr)
					continue
				}
				// Observed path: time the gate and attribute this rank's
				// traffic delta to the span.
				var c0 obs.SpanArgs
				if tr.On() {
					tr.label = gateLabel(&op.G)
					c0 = rt.t.Counters(pe.Rank)
				}
				g0 := time.Now()
				spanned := rt.gateStep(pe, r, st.Op, tr)
				g1 := time.Now()
				rt.gm.observe(op.G.Kind, g1.Sub(g0))
				if tr.On() && !spanned {
					args := spanDelta(c0, rt.t.Counters(pe.Rank))
					args.Kind, args.Qubits = op.G.Kind.String(), qubitList(&op.G)
					tr.Span("", g0, g1, args)
				}
			case sched.StepAlias:
				r.perm.SwapLogical(st.A, st.B)
				if tr.On() {
					now := time.Now()
					tr.label = "alias q" + strconv.Itoa(st.A) + "<->q" + strconv.Itoa(st.B)
					tr.Span("", now, now, obs.SpanArgs{Kind: "alias"})
				}
			case sched.StepRemap:
				// Always executed, always on every rank.
				tr.label = remapLabel(st.Swaps)
				c0 := rt.t.Counters(pe.Rank)
				rt.exchange(pe, r, rt.Compiled.Exchanges[si-1], tr)
				d := spanDelta(c0, rt.t.Counters(pe.Rank))
				moved := d.RemoteBytes + d.MsgBytes
				rt.remapBytes.Observe(float64(moved))
				if pe.Rank == 0 {
					rt.remapCount.Add(1)
				}
				for _, sw := range st.Swaps {
					r.perm.SwapPhysical(sw.Global, sw.Local)
				}
				rt.flight.Record(pe.Rank, obs.EventRemap, tr.label, moved)
				tr.block++ // a remap closes the block it belongs to
			}
		}
	})
	if ferr := rt.ck.finish(); err == nil {
		err = ferr
	}
	// The one count of one-sided traffic is each PE's own Stats: the
	// registry gets every attempt's totals, an aborted one's too.
	comm := rt.Comm.TotalStats()
	rt.metrics.Counter(obs.MetricRemoteBytes).Add(comm.RemoteBytes)
	rt.metrics.Counter(obs.MetricLocalBytes).Add(comm.LocalBytes)
	rt.metrics.Counter(obs.MetricOpRetries).Add(comm.Retries)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Backend: rt.name,
		Cbits:   rt.ranks[0].cbits,
		Comm:    comm,
		Elapsed: time.Since(startT),
		PEs:     rt.P,
	}
	if ts, ok := rt.t.(*twoSided); ok {
		res.MPI = ts.comm.totalStats()
	}
	if rt.P == 1 && rt.plan.Final.IsIdentity() {
		// One rank in natural order: the partition is the state.
		res.State = rt.ranks[0].Local
	} else {
		// Un-permute partition by partition: logical index x lives at the
		// physical index with bit Final[q] holding logical bit q (one copy
		// per partition under the identity).
		res.State = statevec.New(rt.N)
	}
	for r := range rt.ranks {
		run := &rt.ranks[r]
		if res.State != run.Local {
			statevec.Unpermute(res.State.Re, run.Local.Re, r, rt.plan.Final)
			statevec.Unpermute(res.State.Im, run.Local.Im, r, rt.plan.Final)
		}
		res.SV.Add(run.Local.Stats)
		res.SV.Add(run.Extra)
	}
	if rt.ck != nil {
		res.Ckpt = rt.ck.stats
	}
	if groups != nil && rt.metrics != nil {
		rt.metrics.Counter(obs.MetricBytesTouched).Add(res.SV.BytesTouched)
		rt.metrics.Counter(obs.MetricTileSweeps).Add(res.SV.Sweeps)
	}
	if rt.trace != nil || rt.gm != nil {
		res.Mem = obs.TakeMemSnapshot()
	}
	return res, nil
}

// cutPoint is the protocol every rank runs before plan step si, a step
// boundary (a tiled group and a diagonal run are one step each): cut a
// checkpoint when one is due, and honour the stop latch. A checkpoint is
// due at the first boundary at or after each multiple of the interval —
// last is where the latest one was cut — so a step that spans a multiple
// delays the cut to its end instead of skipping it. Several ranks
// cutting a checkpoint must act on the latch identically, so they vote
// at the cut; with no checkpoint to cut together, or nobody to agree
// with, any rank that reads the latch set unwinds the fleet — a lone
// rank after a final checkpoint of the progress it made. It returns the
// step of the latest cut.
func (rt *runtime) cutPoint(pe *pgas.PE, r *Rank, si, last int, tr StepTrace) int {
	cut := rt.ck != nil && si/rt.ck.every > last/rt.ck.every
	stopNow := false
	if rt.ck == nil || rt.P == 1 {
		stopNow = rt.stop.Triggered()
		cut = cut || stopNow && rt.ck != nil && si > rt.Start
	} else if cut {
		stopNow = rt.stop.vote(pe)
	}
	if cut {
		k0 := time.Now()
		var perm circuit.Permutation
		if !rt.identity {
			perm = r.perm
		}
		rt.ck.write(pe, r, si, rt.opsBefore(si), perm)
		tr.label = "checkpoint"
		tr.Span("", k0, time.Now(), obs.SpanArgs{Kind: "checkpoint", Phase: obs.PhaseCheckpoint})
		last = si
	}
	if stopNow {
		// Every rank unwinds with the interrupt; a checkpoint cut above
		// is the final one.
		pe.Fail(ErrInterrupted)
	}
	return last
}

// tileGroup executes one tiled group of the plan as a single homogeneous
// pass over the rank's window: every cache-resident tile has the whole
// gate run replayed over it before the next, so the group costs one
// memory sweep instead of one per gate. Conditions are evaluated once up
// front — the planner never admits a MEASURE, so the classical register
// cannot change mid-group — and each gate applies at its physical
// positions (no group spans a remap or an alias, so the permutation holds
// still). A diagonal run inside the group (runs holds the plan's runs
// from the group's start on) is prepared once and replays over each tile
// as one call. The member list is rank scratch, like the prepared runs.
// With a pool the tile index space is split across the workers —
// parallelism over tiles, not over one gate's index space. A tile is a
// window of the state and runs the step loop's kernels, so the result is
// bit-identical to the untiled path. Under the naive plan on several
// ranks the group closes with the one grid sync a gate step closes with:
// the next remote gate reads these windows.
func (rt *runtime) tileGroup(pe *pgas.PE, r *Rank, grp compile.TileGroup, runs []compile.Run, tr StepTrace) {
	members := r.members[:0]
	var gates int64
	slot := 0
	for si := grp.Start; si < grp.End; si++ {
		if len(runs) > 0 && runs[0].Step == si {
			members = append(members, tileMember{run: rt.prepare(r, slot, &runs[0])})
			gates += int64(runs[0].Gates)
			si += runs[0].Gates - 1
			runs = runs[1:]
			slot++
			continue
		}
		op := &rt.c.Ops[rt.plan.Steps[si].Op]
		if !condSatisfied(op.Cond, r.cbits) {
			continue
		}
		m := tileMember{g: op.G}
		if !rt.identity {
			m.g = r.perm.PhysicalGate(&op.G)
		}
		members = append(members, m)
		if op.G.Kind != gate.BARRIER {
			gates++
		}
	}
	r.members = members
	if len(members) == 0 {
		return
	}
	st, tb := r.Local, uint(rt.Compiled.Tiles.TileBits)
	g0 := time.Now()
	var amps, flops int64
	if rt.pool != nil {
		amps, flops = rt.pool.ForTiles(st.Dim>>tb, func(t int) (int64, int64) { return r.tile(t<<tb, 1<<tb) })
	} else {
		for lo := 0; lo < st.Dim; lo += 1 << tb {
			a, f := r.tile(lo, 1<<tb)
			amps += a
			flops += f
		}
	}
	st.Stats.AddTileWork(gates, amps, flops)
	st.Stats.AddSweep(int64(st.Dim))
	// One span per group (gate latencies do not exist inside a
	// homogeneous pass) and the per-block bytes counter.
	if tr.On() {
		tr.label = fmt.Sprintf("tile run (%d gates)", gates)
		tr.Span("", g0, time.Now(), obs.SpanArgs{Kind: "tile", Phase: obs.PhaseTile})
	}
	if rt.metrics != nil {
		rt.metrics.Counter(obs.MetricBytesTouched + ".block" + strconv.Itoa(tr.block)).Add(int64(st.Dim) * 16)
	}
	if rt.gateSync {
		b0 := time.Now()
		pe.Barrier()
		tr.Barrier("", b0)
	}
}

// tile replays the tile group's members over the window's aligned tile
// [lo, lo+size) and returns the amplitudes and flops visited.
func (r *Rank) tile(lo, size int) (amps, flops int64) {
	for i := range r.members {
		m := &r.members[i]
		var a, f int64
		if m.run != nil {
			a, f = r.Local.ApplyRunTile(m.run, lo, lo+size)
		} else {
			a, f = r.Local.ApplyTile(&m.g, lo, lo+size)
		}
		amps += a
		flops += f
	}
	return amps, flops
}

// prepare loads diagonal run run into the rank's prepared slot: the
// phases are read from the bound gates here, so a re-bound plan needs no
// bind site for them, and the position→key arrays follow the rank's
// current permutation.
func (rt *runtime) prepare(r *Rank, slot int, run *compile.Run) *statevec.DiagTables {
	r.terms = run.Terms(rt.c.Ops, r.terms[:0])
	for len(r.tables) <= slot {
		r.tables = append(r.tables, new(statevec.DiagTables))
	}
	d := r.tables[slot]
	d.Prepare(run.Gates, run.Pinned, run.Qubits, r.terms, run.Table, r.perm)
	return d
}

// runStep executes one run of the plan — a diagonal run or a Pauli gadget
// — as a single step: one kernel pass over the partition window, one
// write-tracker mark, one span and, under the naive plan on several ranks,
// the one grid sync that closes the step. It reports false, having done
// nothing, for a gadget whose rotation pairs amplitudes across partitions
// (an X or Y qubit held in the rank bits; Z qubits there only sign the
// window): its members then execute as the gates they are. Every rank
// holds the same permutation, so all decide alike.
func (rt *runtime) runStep(pe *pgas.PE, r *Rank, run *compile.Run, tr StepTrace) bool {
	observed := tr.On() || rt.gm != nil
	var g0 time.Time
	if observed {
		g0 = time.Now()
	}
	if p := run.Pauli; p != nil {
		rot := statevec.PauliRot{
			X: physMask(p.X, r.perm), Z: physMask(p.Z, r.perm), Neg: p.Neg,
			Theta: rt.c.Ops[p.Core].G.Params[0], Gates: run.Gates,
		}
		if rot.X >= rt.S {
			return false
		}
		if rt.pool != nil {
			rt.pool.ApplyPauliRotShared(r.Local, &rot)
		} else {
			r.Local.ApplyPauliRot(&rot)
		}
	} else {
		d := rt.prepare(r, 0, run)
		if rt.pool != nil {
			rt.pool.ApplyRunShared(r.Local, d)
		} else {
			r.Local.ApplyRun(d)
		}
	}
	if observed {
		g1 := time.Now()
		rt.gm.observeRun(run.Pauli != nil, g1.Sub(g0))
		if tr.On() {
			args := obs.SpanArgs{Kind: "diag"}
			tr.label = fmt.Sprintf("diag run (%d gates)", run.Gates)
			if p := run.Pauli; p != nil {
				args.Kind = "pauli"
				tr.label = fmt.Sprintf("pauli gadget (%d gates, %d qubits)", run.Gates, bits.OnesCount64(p.X|p.Z))
			}
			tr.Span("", g0, g1, args)
		}
	}
	if rt.gateSync {
		pe.Barrier()
	}
	return true
}

// physMask maps a mask of logical qubits to the physical index bits that
// hold them under perm.
func physMask(logical uint64, perm circuit.Permutation) int {
	var m int
	for ; logical != 0; logical &= logical - 1 {
		m |= 1 << uint(perm[bits.TrailingZeros64(logical)])
	}
	return m
}

// gateStep executes one circuit op at its current physical positions
// and, under the naive plan on several ranks, the grid sync that closes
// it (and the one between a RESET's measurement and its X). It reports
// whether the transport recorded sub-spans in place of the parent gate
// span.
func (rt *runtime) gateStep(pe *pgas.PE, r *Rank, opIdx int, tr StepTrace) (spanned bool) {
	g := &rt.c.Ops[opIdx].G
	switch g.Kind {
	case gate.BARRIER:
		return false
	case gate.MEASURE:
		r.cbits = setCbit(r.cbits, int(g.Cbit), rt.measure(pe, r, int(g.Qubits[0])))
	case gate.RESET:
		if q := int(g.Qubits[0]); rt.measure(pe, r, q) == 1 {
			if rt.gateSync {
				pe.Barrier() // every partition collapsed before the X pairs across them
			}
			x := gate.NewX(q)
			cls := gate.Classify(&x)
			spanned = rt.apply(pe, r, &x, &cls, tr)
		}
	default:
		spanned = rt.apply(pe, r, g, rt.Compiled.Classes[opIdx], tr)
	}
	if rt.gateSync {
		var b0 time.Time
		if spanned {
			b0 = time.Now()
		}
		pe.Barrier()
		if spanned {
			tr.Barrier("", b0)
		}
	}
	return spanned
}

// apply runs one unitary on the partition window when no pairing target
// crosses partitions — the kernel resolves global controls and diagonal
// targets against the window's base — and through the transport's
// remote-gate routine otherwise. cls is nil for the kinds the compile
// pipeline does not classify (GPHASE), which never cross.
func (rt *runtime) apply(pe *pgas.PE, r *Rank, g *gate.Gate, cls *gate.Class, tr StepTrace) bool {
	if !rt.identity {
		pg := r.perm.PhysicalGate(g)
		g = &pg
	}
	remote := false
	if rt.P > 1 && cls != nil && !cls.Diag {
		for _, t := range g.Targets() {
			remote = remote || int(t) >= rt.LocalBits
		}
	}
	if remote {
		return rt.t.RemoteGate(pe, r, g, tr)
	}
	if rt.pool != nil {
		rt.pool.ApplyShared(r.Local, g)
	} else {
		r.Local.Apply(g)
	}
	return false
}

// measure performs a projective measurement of logical qubit q at its
// current physical position: the windows' probability shares are
// combined with one all-reduce (a lone window's share is the
// probability), every rank draws the same uniform number from its
// replicated stream, and each collapses its partition. Share and
// all-reduce are one balanced summation tree over the physical index
// space, so the probability does not depend on how many ranks hold it.
func (rt *runtime) measure(pe *pgas.PE, r *Rank, q int) int {
	phys := r.perm[q]
	p1 := r.Local.ProbOne(phys)
	if rt.P > 1 {
		p1 = pe.AllReduceSum(p1)
	}
	outcome := 0
	if r.draw() < p1 {
		outcome = 1
	}
	r.Local.Project(phys, outcome, p1)
	r.Extra.Gates++
	r.Extra.Sweeps++
	r.Extra.AmpsTouched += int64(rt.S)
	r.Extra.BytesTouched += int64(rt.S) * 16
	r.Extra.FlopEst += int64(rt.S) * 2
	return outcome
}

// runOnce builds and executes one attempt of an already-compiled circuit,
// from |0...0> or the warm start when m is nil.
func runOnce(name string, cfg Config, cp *compile.CompiledPlan, nt newTransport, dir string, m *ckpt.Manifest) (*Result, error) {
	rt, err := newRuntime(name, cfg, cp, nt, dir, m)
	if err != nil {
		return nil, err
	}
	return rt.run()
}

// Run compiles c and executes it on the backend the table names — the
// one entry point behind every backend: the row picks the transport and
// the grid (cfg.PEs ranks, or one rank with cfg.PEs pool workers on
// threaded), and backend names the run in results and checkpoint
// manifests.
func Run(backend string, cfg Config, c *circuit.Circuit) (*Result, error) {
	return RunFrom(backend, cfg, c, nil)
}

// RunFrom is Run continuing from start — a full logical state and the
// classical side that led to it — in place of |0...0>: the grid scatters
// the state across its partitions and every rank replays start.Draws of
// the seed's stream, so measurements continue where start's left off. A
// reshard starts its residual the same way (runElastic). A nil start is
// a fresh run.
func RunFrom(backend string, cfg Config, c *circuit.Circuit, start *ckpt.WarmStart) (*Result, error) {
	rw, err := lookup(backend)
	if err != nil {
		return nil, err
	}
	cfg, done := rw.configure(cfg)
	defer done()
	res, err := run(backend, cfg, c, start, rw.nt)
	if err == nil && cfg.Pool != nil {
		res.PEs = cfg.Pool.Workers()
	}
	return res, err
}

// run executes c on cfg.PEs ranks over the transport nt builds, from
// start when it is non-nil (Config.warm) and from |0...0> otherwise. A
// cfg.Resume checkpoint continues on this grid whatever grid it was
// taken on, and this is the one place that decides how: taken on as
// many ranks, each rank restores its shard in place; taken on another
// count, it is resharded (runElastic). Either way the circuit is
// compiled at the checkpoint's grid size, whose stream its op cut
// indexes. Then the graceful-degradation loop: a torn or corrupt
// checkpoint to continue from falls back to the next older one under
// cfg.CheckpointDir, and a recoverable rank failure (injected kill,
// stalled barrier, exhausted retry budget) restarts the run from its
// latest complete checkpoint up to cfg.MaxRestarts times — or, with
// cfg.Elastic, re-shards it onto half the fleet; without a checkpoint to
// restart from, or past the budget, the run reports a structured
// RunFailure.
func run(backend string, cfg Config, c *circuit.Circuit, start *ckpt.WarmStart, nt newTransport) (*Result, error) {
	cfg.warm = start
	if err := checkCircuit(c, 64); err != nil {
		return nil, err
	}
	if err := checkPEs(cfg.PEs, c.NumQubits); err != nil {
		return nil, err
	}
	p := max(cfg.PEs, 1)
	var dir string       // the checkpoint the next attempt continues,
	var m *ckpt.Manifest // nil for |0...0> (or the warm start)
	if cfg.Resume != "" {
		var err error
		if dir, m, err = ckpt.Resolve(cfg.Resume); err != nil {
			return nil, err
		}
	}
	var mFailures, mRecoveries *obs.Counter
	if cfg.Metrics != nil {
		mFailures = cfg.Metrics.Counter(obs.MetricPEFailures)
		mRecoveries = cfg.Metrics.Counter(obs.MetricRecoveries)
	}
	var cp *compile.CompiledPlan
	var cst compile.Stats
	attempts, recovered := 0, 0
	for {
		// Compile at the grid size of the checkpoint the attempt continues,
		// once: restarts re-execute the same immutable plan.
		at := p
		if m != nil {
			at = m.PEs
		}
		if cp == nil || cp.PEs != at {
			if err := checkPEs(at, c.NumQubits); err != nil {
				return nil, fmt.Errorf("core: checkpoint fleet size: %w", err)
			}
			var err error
			if cp, cst, err = compileCircuit(cfg, c, at); err != nil {
				return nil, err
			}
		}
		attempts++
		cfg.Flight.Record(-1, obs.EventRunStart, backend, int64(attempts))
		reshard := at != p
		var res *Result
		var err error
		if reshard {
			// The residual is a run of its own, whose recoveries and
			// compile the result reports.
			if res, err = runElastic(backend, cfg, cp, dir, m, p, nt); err == nil {
				return res, nil
			}
		} else if res, err = runOnce(backend, cfg, cp, nt, dir, m); err == nil {
			res.Recoveries = recovered
			res.Compile = cst
			return res, nil
		}
		var se *ckpt.ShardError
		if errors.As(err, &se) && m != nil && cfg.CheckpointDir != "" {
			// The checkpoint we tried to continue from is torn or corrupt:
			// fall back to the next older complete one. Steps strictly
			// decrease, so this loop terminates without a restart budget.
			cfg.Flight.Record(-1, obs.EventRunFailed, "corrupt checkpoint: "+err.Error(), int64(attempts))
			odir, om, ok := olderCheckpoint(cfg.CheckpointDir, m.Step)
			if !ok {
				return nil, &RunFailure{Backend: backend, Attempts: attempts, Cause: err}
			}
			dir, m = odir, om
			cfg.Flight.Record(-1, obs.EventRestart, "fallback to "+dir, int64(m.Step))
			continue
		}
		if reshard || !recoverable(err) {
			// Setup/validation problems, interrupts, and checkpoint I/O
			// errors are terminal; restarting cannot help. A reshard ran
			// its own recovery loop.
			return nil, err
		}
		cfg.Flight.Record(-1, obs.EventRunFailed, err.Error(), int64(attempts))
		mFailures.Add(1)
		if cfg.CheckpointDir == "" || recovered >= cfg.MaxRestarts {
			return nil, &RunFailure{Backend: backend, Attempts: attempts, Cause: err}
		}
		ldir, lm, ok, lerr := ckpt.Latest(cfg.CheckpointDir)
		if lerr != nil || !ok {
			return nil, &RunFailure{Backend: backend, Attempts: attempts, Cause: err}
		}
		var ke *fault.KillError
		if cfg.Elastic && p > 1 && errors.As(err, &ke) && ckpt.ElasticRestorable(lm) == nil {
			// Elastic shrink: instead of restarting the dead rank's fleet
			// at full size, re-shard the checkpoint onto half the ranks
			// and run the residual circuit there.
			res, eerr := runElastic(backend, cfg, cp, ldir, lm, p/2, nt)
			if eerr != nil {
				return nil, &RunFailure{Backend: backend, Attempts: attempts + 1, Cause: eerr}
			}
			res.Recoveries = recovered + 1
			res.Compile = cst
			mRecoveries.Add(1)
			return res, nil
		}
		dir, m = ldir, lm
		recovered++
		mRecoveries.Add(1)
		cfg.Flight.Record(-1, obs.EventRestart, "resume from "+dir, int64(recovered))
	}
}

// olderCheckpoint returns the newest complete checkpoint under base
// strictly older than step.
func olderCheckpoint(base string, step int) (string, *ckpt.Manifest, bool) {
	steps, err := ckpt.CompleteSteps(base)
	if err != nil {
		return "", nil, false
	}
	for _, s := range steps { // newest first
		if s < step {
			dir := ckpt.StepDir(base, s)
			m, err := ckpt.ReadManifest(dir)
			return dir, m, err == nil
		}
	}
	return "", nil, false
}
