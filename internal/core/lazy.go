package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"svsim/internal/circuit"
	"svsim/internal/ckpt"
	"svsim/internal/compile"
	"svsim/internal/gate"
	"svsim/internal/obs"
	"svsim/internal/pgas"
	"svsim/internal/sched"
	"svsim/internal/statevec"
)

// Lazy-scheduled distributed execution: instead of paying fine-grained
// remote traffic per global-qubit gate (dist.go's naive schedule), the
// circuit is planned by internal/sched into blocks of gates whose
// targets are physically local under an evolving logical-to-physical
// qubit permutation, separated by batched remap exchanges — one
// coalesced all-to-all over the symmetric heap per block boundary.
// Within a block no gate needs a barrier: every PE touches only its own
// partition, so blocks also eliminate the per-gate grid syncs of the
// naive schedule.

// lazySim is one lazy-scheduled distributed run in progress.
type lazySim struct {
	name      string
	n         int
	p         int
	S         int
	localBits int
	dim       int

	comm       *pgas.Comm
	svRe, svIm *pgas.SymF64
	stage      *pgas.SymF64 // 2S staging floats per PE for remap exchanges

	c       *circuit.Circuit
	plan    *sched.Plan
	exch    []*sched.Exchange // per step: all-to-all plan for remap steps
	label   []string          // per step: trace span label, "" when untraced kind
	blockOf []int             // per step: 1-based schedule block for attribution

	// Two-level remap state, zero/nil on a flat (topology-less) run.
	topo    sched.Topology
	tl      []*sched.TwoLevel // per step: hierarchical split, nil => flat exchange
	nodeGrp []*pgas.Group     // per node: barrier domain of that node's PEs
	railGrp []*pgas.Group     // per within-node position: its ranks across nodes

	perPE     []lazyRun
	phasesRun int64 // exchange phases executed by two-level remaps (rank 0 only)

	ck        *ckptWriter // nil when checkpointing is off
	start     int         // first plan-step index to execute (non-zero on resume)
	opsBefore []int       // per step: executable-stream ops completed before it
	stop      *StopLatch  // graceful-shutdown latch, nil when unused

	trace      *obs.Tracer
	gm         *gateObs
	flight     *obs.FlightRecorder
	remapBytes *obs.Histogram // per-PE remote bytes of each remap exchange
	remapCount *obs.Counter
	intraBytes *obs.Counter // node-local share of remap remote traffic
	interBytes *obs.Counter // node-crossing share of remap remote traffic
	exchPhases *obs.Counter // two-level exchange phases executed
}

// lazyRun is the per-PE mutable state; each PE replays its own copy of
// the permutation, so no cross-PE bookkeeping writes exist.
type lazyRun struct {
	local *statevec.State
	rng   *rand.Rand
	draws int64 // uniform variates consumed, for checkpointed RNG replay
	cbits uint64
	extra statevec.Stats
	perm  circuit.Permutation
	pack  []float64   // remap pack scratch, 2S floats (two 2B halves when pipelined)
	dirty *ckpt.Dirty // write tracking for delta checkpoints; nil unless async ckpt
	// intraBytes/interBytes split this PE's remap remote traffic by node
	// locality under the run's topology; zero on a flat run.
	intraBytes int64
	interBytes int64
	_          [64]byte
}

// draw consumes one uniform variate from the replicated stream.
func (run *lazyRun) draw() float64 {
	run.draws++
	return run.rng.Float64()
}

// markAll / markCtrls feed the delta-checkpoint write tracker; no-ops
// when tracking is off.
func (run *lazyRun) markAll() {
	if run.dirty != nil {
		run.dirty.MarkAll()
	}
}

func (run *lazyRun) markCtrls(cmask int) {
	if run.dirty != nil {
		run.dirty.MarkCtrls(cmask)
	}
}

func newLazySim(name string, cfg Config, cp *compile.CompiledPlan) (*lazySim, error) {
	c := cp.Circuit
	p := cfg.PEs
	if p < 1 {
		p = 1
	}
	n := c.NumQubits
	d := &lazySim{
		name: name,
		n:    n,
		p:    p,
		dim:  1 << uint(n),
		c:    c,
	}
	d.S = d.dim / p
	d.localBits = n - bits.Len(uint(p-1))

	// The compile pipeline already did the upload step: the plan and
	// every remap's all-to-all geometry arrive
	// precomputed (and possibly shared with concurrent runs via the
	// plan cache), so the SPMD loop only executes.
	d.plan = cp.Plan
	d.exch = cp.Exchanges
	d.topo = cp.Topo
	d.tl = cp.TwoLevels
	d.opsBefore = cp.OpsBefore()
	d.stop = cfg.Stop

	d.comm = pgas.NewComm(p)
	d.comm.SetFault(cfg.Fault)
	d.comm.SetTimeouts(cfg.Timeouts)
	d.comm.SetRecorder(cfg.Flight)
	d.ck = newCkptWriter(cfg, name, c, p, cp.PlanFP)
	d.trace = cfg.Trace
	d.flight = cfg.Flight
	if cfg.Metrics != nil {
		d.comm.SetMetrics(cfg.Metrics)
		d.gm = newGateObs(cfg.Metrics)
		d.remapBytes = cfg.Metrics.Histogram(obs.MetricRemapBytes, obs.SizeBuckets())
		d.remapCount = cfg.Metrics.Counter(obs.MetricRemapCount)
		if d.topo.Enabled() {
			d.intraBytes = cfg.Metrics.Counter(obs.MetricRemoteBytesIntra)
			d.interBytes = cfg.Metrics.Counter(obs.MetricRemoteBytesInter)
			d.exchPhases = cfg.Metrics.Counter(obs.MetricExchangePhases)
		}
	}
	if d.topo.Enabled() && p > 1 {
		// Barrier domains for the two-level exchange: one group per node
		// (its consecutive ranks) and one per within-node position (its
		// "rail" of ranks across nodes). Each phase synchronizes only the
		// ranks it couples instead of stopping the whole fleet.
		ppn := d.topo.PEsPerNode
		if ppn > p {
			ppn = p
		}
		d.nodeGrp = make([]*pgas.Group, d.topo.Nodes(p))
		for nd := range d.nodeGrp {
			ranks := make([]int, ppn)
			for i := range ranks {
				ranks[i] = nd*ppn + i
			}
			d.nodeGrp[nd] = d.comm.Group(ranks)
		}
		d.railGrp = make([]*pgas.Group, ppn)
		for w := range d.railGrp {
			var ranks []int
			for r := w; r < p; r += ppn {
				ranks = append(ranks, r)
			}
			d.railGrp[w] = d.comm.Group(ranks)
		}
	}
	d.svRe = d.comm.NewSymF64(d.S)
	d.svIm = d.comm.NewSymF64(d.S)
	d.stage = d.comm.NewSymF64(2 * d.S)
	d.svRe.PartitionUnsafe(0)[0] = 1 // |0...0>

	d.label = make([]string, len(d.plan.Steps))
	d.blockOf = make([]int, len(d.plan.Steps))
	block := 1
	for si := range d.plan.Steps {
		st := &d.plan.Steps[si]
		d.blockOf[si] = block
		switch st.Kind {
		case sched.StepRemap:
			d.label[si] = remapLabel(st.Swaps)
			block++ // a remap closes the block it belongs to
		case sched.StepAlias:
			d.label[si] = "alias q" + strconv.Itoa(st.A) + "<->q" + strconv.Itoa(st.B)
		}
	}

	d.perPE = make([]lazyRun, p)
	for r := 0; r < p; r++ {
		d.perPE[r] = lazyRun{
			local: &statevec.State{
				N:     d.localBits,
				Dim:   d.S,
				Re:    d.svRe.PartitionUnsafe(r),
				Im:    d.svIm.PartitionUnsafe(r),
				Base:  r * d.S,
				Style: cfg.Style,
			},
			rng:  newRNG(cfg.Seed),
			perm: circuit.IdentityPermutation(n),
			pack: make([]float64, 2*d.S),
		}
		if d.ck.async() {
			d.perPE[r].dirty = ckpt.NewDirty(d.S, 0)
		}
	}
	if cfg.Init != nil {
		// Elastic warm start: scatter the full logical state across this
		// fleet's partitions in place of |0...0>. The initial permutation
		// is identity, so logical index == physical index here.
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
		if len(m.Perm) != n {
			return nil, fmt.Errorf("core: checkpoint permutation has %d entries, want %d", len(m.Perm), n)
		}
		if err := circuit.Permutation(m.Perm).Validate(); err != nil {
			return nil, fmt.Errorf("core: checkpoint permutation invalid: %w", err)
		}
		if m.Step > len(d.plan.Steps) {
			return nil, fmt.Errorf("core: checkpoint step %d beyond plan length %d", m.Step, len(d.plan.Steps))
		}
		if err := restoreShards(dir, m, d.svRe, d.svIm, d.localBits); err != nil {
			return nil, err
		}
		for r := range d.perPE {
			run := &d.perPE[r]
			run.cbits = m.Cbits
			replayDraws(run.rng, m.Draws)
			run.draws = m.Draws
			run.perm = circuit.Permutation(m.Perm).Clone()
		}
		d.start = m.Step
		cfg.Flight.Record(-1, obs.EventRestore, dir, int64(m.Step))
	}
	return d, nil
}

func remapLabel(swaps []sched.Swap) string {
	var b strings.Builder
	b.WriteString("remap ")
	for i, sw := range swaps {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('b')
		b.WriteString(strconv.Itoa(sw.Global))
		b.WriteString("<->b")
		b.WriteString(strconv.Itoa(sw.Local))
	}
	return b.String()
}

// run executes the plan SPMD and returns the gathered, un-permuted result.
func (d *lazySim) run() (*Result, error) {
	start := time.Now()
	err := d.comm.RunChecked(func(pe *pgas.PE) {
		run := &d.perPE[pe.Rank]
		trk := d.trace.Track(pe.Rank)
		for si := d.start; si < len(d.plan.Steps); si++ {
			if si > d.start && d.ck.due(si) {
				stopNow := d.stop.vote(pe)
				if trk != nil {
					k0 := time.Now()
					d.ck.write(pe, run.local, si, d.opsBefore[si], run.cbits, run.draws, run.perm, run.dirty)
					trk.SpanAt("checkpoint", k0, time.Now(), obs.SpanArgs{
						Kind: "checkpoint", Phase: obs.PhaseCheckpoint, Block: d.blockOf[si]})
				} else {
					d.ck.write(pe, run.local, si, d.opsBefore[si], run.cbits, run.draws, run.perm, run.dirty)
				}
				if stopNow {
					// The checkpoint above is the final one; every PE
					// unwinds identically with the interrupt.
					pe.Fail(ErrInterrupted)
				}
			}
			st := &d.plan.Steps[si]
			if st.Kind == sched.StepGate {
				op := &d.c.Ops[st.Op]
				if !condSatisfied(op.Cond, run.cbits) {
					continue
				}
				if trk == nil && d.gm == nil {
					d.execGate(pe, run, st.Op)
					continue
				}
				c0 := d.comm.StatsOf(pe.Rank)
				g0 := time.Now()
				d.execGate(pe, run, st.Op)
				g1 := time.Now()
				d.gm.observe(op.G.Kind, g1.Sub(g0))
				if trk != nil {
					args := d.spanArgs(&op.G, pe.Rank, c0)
					args.Block = d.blockOf[si]
					trk.SpanAt(gateLabel(&op.G), g0, g1, args)
				}
				continue
			}
			if st.Kind == sched.StepAlias {
				run.perm.SwapLogical(st.A, st.B)
				if trk != nil {
					now := time.Now()
					trk.SpanAt(d.label[si], now, now, obs.SpanArgs{Kind: "alias", Block: d.blockOf[si]})
				}
				continue
			}
			// Remap step: always executed, always on every PE. A folded
			// remap acts on |0...0>, which every bit permutation fixes,
			// so its data movement is elided and only the permutation
			// bookkeeping applies.
			if st.Folded {
				for _, sw := range st.Swaps {
					run.perm.SwapPhysical(sw.Global, sw.Local)
				}
				d.flight.Record(pe.Rank, obs.EventRemap, d.label[si]+" folded", 0)
				continue
			}
			run.markAll() // the exchange rewrites the whole partition
			tl := d.twoLevelAt(si)
			c0 := d.comm.StatsOf(pe.Rank)
			i0, e0 := run.intraBytes, run.interBytes
			tr := exchTrace{trk: trk, label: d.label[si], block: d.blockOf[si]}
			if tl == nil {
				d.execRemap(pe, run, d.exch[si], tr)
			} else {
				if tl.Intra != nil {
					d.execPhase(pe, run, tl.Intra, true, tr)
				}
				if tl.Inter != nil {
					d.execPhase(pe, run, tl.Inter, false, tr)
				}
			}
			for _, sw := range st.Swaps {
				run.perm.SwapPhysical(sw.Global, sw.Local)
			}
			c1 := d.comm.StatsOf(pe.Rank)
			d.remapBytes.Observe(float64(c1.RemoteBytes - c0.RemoteBytes))
			d.intraBytes.Add(run.intraBytes - i0)
			d.interBytes.Add(run.interBytes - e0)
			if pe.Rank == 0 {
				d.remapCount.Add(1)
				if tl != nil {
					ph := int64(tl.Phases())
					d.phasesRun += ph
					d.exchPhases.Add(ph)
				}
			}
			d.flight.Record(pe.Rank, obs.EventRemap, d.label[si], c1.RemoteBytes-c0.RemoteBytes)
		}
	})
	if ferr := d.ck.finish(); err == nil {
		err = ferr
	}
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	// Un-permute partition by partition: logical index x lives at the
	// physical index with bit Final[q] holding logical bit q.
	st := statevec.New(d.n)
	for r := 0; r < d.p; r++ {
		statevec.Unpermute(st.Re, d.svRe.PartitionUnsafe(r), r, d.plan.Final)
		statevec.Unpermute(st.Im, d.svIm.PartitionUnsafe(r), r, d.plan.Final)
	}
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
		res.IntraBytes += d.perPE[r].intraBytes
		res.InterBytes += d.perPE[r].interBytes
	}
	res.ExchangePhases = d.phasesRun
	if d.trace != nil || d.gm != nil {
		res.Mem = obs.TakeMemSnapshot()
	}
	return res, nil
}

func (d *lazySim) spanArgs(g *gate.Gate, rank int, c0 pgas.Stats) obs.SpanArgs {
	c1 := d.comm.StatsOf(rank)
	return obs.SpanArgs{
		Kind:        g.Kind.String(),
		Qubits:      qubitList(g),
		LocalBytes:  c1.LocalBytes - c0.LocalBytes,
		RemoteBytes: c1.RemoteBytes - c0.RemoteBytes,
		LocalMsgs:   (c1.LocalGets + c1.LocalPuts) - (c0.LocalGets + c0.LocalPuts),
		RemoteMsgs:  c1.RemoteMessages() - c0.RemoteMessages(),
		Barriers:    c1.Barriers - c0.Barriers,
	}
}

// execGate applies one circuit op at its current physical positions.
// The planner guarantees every non-diagonal target is physically local,
// so no gate here touches a peer partition.
func (d *lazySim) execGate(pe *pgas.PE, run *lazyRun, opIdx int) {
	op := &d.c.Ops[opIdx]
	g := &op.G
	switch g.Kind {
	case gate.BARRIER:
		return
	case gate.MEASURE:
		run.markAll() // collapse renormalizes the whole partition
		out := d.measure(pe, run, int(g.Qubits[0]))
		run.cbits = setCbit(run.cbits, int(g.Cbit), out)
		return
	case gate.RESET:
		run.markAll()
		if d.measure(pe, run, int(g.Qubits[0])) == 1 {
			x := gate.NewX(run.perm[int(g.Qubits[0])])
			run.local.Apply(&x)
		}
		return
	}
	// The op runs on the partition window at its current physical
	// positions; the kernel resolves the global ones. Write tracking: only
	// amplitudes satisfying every LOCAL control bit can change (global
	// controls merely gate the whole partition, conservatively ignored).
	pg := run.perm.PhysicalGate(g)
	var localMask int
	for _, c := range pg.Qubits[:g.Kind.NumControls()] {
		if int(c) < d.localBits {
			localMask |= 1 << uint(c)
		}
	}
	run.markCtrls(localMask)
	run.local.Apply(&pg)
}

// exchTrace names the sub-spans of one remap exchange. The traced and
// untraced runs execute the same routine; a nil track only drops the
// records, so the per-phase shares of a traced run describe the loops an
// untraced run executes.
type exchTrace struct {
	trk   *obs.Track
	label string
	block int
}

func (x exchTrace) span(suffix string, start, end time.Time, args obs.SpanArgs) {
	if x.trk == nil {
		return
	}
	args.Block = x.block
	x.trk.SpanAt(x.label+suffix, start, end, args)
}

// barrier records a one-barrier span from start to now and returns now.
func (x exchTrace) barrier(suffix string, start time.Time) time.Time {
	now := time.Now()
	x.span(suffix+" barrier", start, now, obs.SpanArgs{Kind: "barrier", Phase: obs.PhaseBarrier, Barriers: 1})
	return now
}

// wireArgs attributes the one-sided traffic between two stats samples of
// one PE to a wire span.
func wireArgs(phase string, c0, c1 pgas.Stats) obs.SpanArgs {
	return obs.SpanArgs{
		Kind: "wire", Phase: phase,
		LocalBytes:  c1.LocalBytes - c0.LocalBytes,
		RemoteBytes: c1.RemoteBytes - c0.RemoteBytes,
		LocalMsgs:   (c1.LocalGets + c1.LocalPuts) - (c0.LocalGets + c0.LocalPuts),
		RemoteMsgs:  c1.RemoteMessages() - c0.RemoteMessages(),
	}
}

// packBlock gathers the block of this PE's partition headed to dst — the
// affine subcube with the out-bits pinned to dst's rank bits — into buf,
// re plane then im plane.
func (d *lazySim) packBlock(buf []float64, run *lazyRun, ex *sched.Exchange, dst int) {
	B := ex.BlockLen
	pinned := ex.PinnedVal(dst, d.localBits)
	statevec.GatherBits(buf[:B], run.local.Re, pinned, ex.FreeBits)
	statevec.GatherBits(buf[B:], run.local.Im, pinned, ex.FreeBits)
}

// unpackBlocks scatters every block that landed in this PE's staging
// area to its place in the partition.
func (d *lazySim) unpackBlocks(rank int, run *lazyRun, ex *sched.Exchange) {
	B := ex.BlockLen
	stg := d.stage.PartitionUnsafe(rank)
	for src := 0; src < d.p; src++ {
		if !ex.Compat[src][rank] {
			continue
		}
		blk := stg[2*ex.OffElems[src][rank]:][:2*B]
		statevec.ScatterBits(run.local.Re, blk[:B], ex.InBase[src], ex.ImgFree)
		statevec.ScatterBits(run.local.Im, blk[B:], ex.InBase[src], ex.ImgFree)
	}
	run.extra.AmpsTouched += 2 * int64(d.S)
	run.extra.BytesTouched += 2 * int64(d.S) * 16
}

// execRemap performs one batched all-to-all qubit-remap exchange: each
// PE packs one contiguous block per destination, puts it into the
// destination's staging area with a single coalesced transfer, and after
// a barrier unpacks its own staging into its partition. Its sub-spans
// split the pack/put loop into a pack span (the accumulated buffer-fill
// time, drawn contiguously from the loop start) and a wire span (the
// remainder, covering the coalesced puts), then barrier, unpack and the
// trailing barrier get spans of their own — in place of one remap span,
// which would double-count them.
func (d *lazySim) execRemap(pe *pgas.PE, run *lazyRun, ex *sched.Exchange, tr exchTrace) {
	s := pe.Rank
	B := ex.BlockLen
	c0 := d.comm.StatsOf(s)
	loopStart := time.Now()
	var packed time.Duration
	var packBytes int64
	for dst := 0; dst < d.p; dst++ {
		if !ex.Compat[s][dst] {
			continue
		}
		buf := run.pack[:2*B]
		p0 := time.Now()
		d.packBlock(buf, run, ex, dst)
		packed += time.Since(p0)
		packBytes += int64(2*B) * 8
		pe.PutV(d.stage, dst, 2*ex.OffElems[s][dst], buf)
	}
	loopEnd := time.Now()
	packEnd := loopStart.Add(packed)
	tr.span(" pack", loopStart, packEnd, obs.SpanArgs{Kind: "pack", Phase: obs.PhasePack, PackBytes: packBytes})
	tr.span(" wire", packEnd, loopEnd, wireArgs(obs.PhaseWire, c0, d.comm.StatsOf(s)))
	// All blocks must land before anyone reads its staging.
	pe.Barrier()
	u0 := tr.barrier("", loopEnd)
	d.unpackBlocks(s, run, ex)
	u1 := time.Now()
	tr.span(" unpack", u0, u1, obs.SpanArgs{Kind: "unpack", Phase: obs.PhaseUnpack, PackBytes: packBytes})
	// All staging reads must finish before the next exchange overwrites it.
	pe.Barrier()
	tr.barrier("", u1)
}

// twoLevelAt returns the hierarchical split of a remap step, nil when
// the step (or the whole run) executes the flat exchange.
func (d *lazySim) twoLevelAt(si int) *sched.TwoLevel {
	if si < len(d.tl) {
		return d.tl[si]
	}
	return nil
}

// execPhase runs one phase of a two-level remap over the barrier domain
// it couples: the PE's node group for the intra phase, its rail — the
// ranks holding the same within-node position across all nodes — for the
// inter phase. A remap runs its intra phase (all compatible pairs share a
// node) and then its minimal inter phase; the two realize disjoint
// transpositions, so their composition lands every amplitude exactly
// where the flat exchange would — bit-identically — while the fleet-wide
// stop-the-world barriers of the flat path are replaced by per-phase
// group synchronization.
//
// The per-phase protocol is: entry group barrier, pipelined pack+put,
// mid group barrier (all of this phase's blocks have landed), unpack —
// and no exit barrier, because the next phase's (or the next remap's)
// entry barrier already orders every later write into this PE's staging
// area after the unpack reads below. The entry barrier is what makes the
// single staging buffer safe: a peer can only reach its puts after every
// member of the group — in particular every PE it targets — has finished
// reading its staging from the previous phase.
//
// The pack/put loop is double-buffered: block k+1 is packed into the
// half of the scratch buffer the in-flight put is not reading, then
// put k is joined and put k+1 launched, so the pack of block k+1
// overlaps the wire transfer of block k. Every phase exchange moves at
// least one local bit out, so 2 blocks fit the 2S-float scratch.
//
// Each destination block gets a pack span (the buffer fill) and a wire
// span (put launch to join), labeled pack.intra/wire.intra or
// pack.inter/wire.inter so attribution separates same-node from
// node-crossing exchange time. The timeline exhibits the pipeline
// directly: the pack span of block k+1 starts before the wire span of
// block k ends. Wire span k is recorded at its join, just before pack
// span k+1, which keeps the track's nondecreasing-start contract.
func (d *lazySim) execPhase(pe *pgas.PE, run *lazyRun, ex *sched.Exchange, intra bool, tr exchTrace) {
	s := pe.Rank
	B := ex.BlockLen
	grp, moved := d.railGrp[s%len(d.railGrp)], &run.interBytes
	phPack, phWire, sub := obs.PhasePackInter, obs.PhaseWireInter, " inter"
	if intra {
		grp, moved = d.nodeGrp[d.topo.Node(s)], &run.intraBytes
		phPack, phWire, sub = obs.PhasePackIntra, obs.PhaseWireIntra, " intra"
	}
	b0 := time.Now()
	grp.Barrier(pe)
	tr.barrier(sub, b0)
	var join func()
	var wStart time.Time
	var wc0 pgas.Stats
	finish := func() {
		join()
		tr.span(sub+" wire", wStart, time.Now(), wireArgs(phWire, wc0, d.comm.StatsOf(s)))
	}
	half := 0
	for dst := 0; dst < d.p; dst++ {
		if !ex.Compat[s][dst] {
			continue
		}
		buf := run.pack[half : half+2*B]
		p0 := time.Now()
		d.packBlock(buf, run, ex, dst)
		p1 := time.Now()
		if join != nil {
			finish()
		}
		tr.span(sub+" pack", p0, p1, obs.SpanArgs{Kind: "pack", Phase: phPack, PackBytes: int64(2*B) * 8})
		wc0 = d.comm.StatsOf(s)
		wStart = time.Now()
		join = d.asyncPut(pe, dst, 2*ex.OffElems[s][dst], buf)
		half ^= 2 * B
		if dst != s {
			*moved += int64(2*B) * 8
		}
	}
	if join != nil {
		finish()
	}
	mb0 := time.Now()
	grp.Barrier(pe)
	u0 := tr.barrier(sub, mb0)
	d.unpackBlocks(s, run, ex)
	tr.span(sub+" unpack", u0, time.Now(), obs.SpanArgs{Kind: "unpack", Phase: obs.PhaseUnpack})
}

// asyncPut issues pe.PutV from a helper goroutine so the caller can pack
// the next block while this one is on the wire, returning the join that
// must run before the buffer half is reused. At most one put is ever in
// flight per PE (the caller joins before launching the next), so the
// PE's statistics stay effectively single-writer, and the channel
// handoff publishes them back to the PE goroutine. A failure inside the
// put (an injected kill, an exhausted retry budget) unwinds the helper;
// join re-raises it on the PE goroutine so the abort reaches
// RunChecked's recover.
func (d *lazySim) asyncPut(pe *pgas.PE, dst, off int, buf []float64) func() {
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		pe.PutV(d.stage, dst, off, buf)
	}()
	return func() {
		if rec := <-done; rec != nil {
			panic(rec)
		}
	}
}

// measure performs a distributed projective measurement of logical qubit
// q at its current physical position; the draw is replicated across PEs.
func (d *lazySim) measure(pe *pgas.PE, run *lazyRun, q int) int {
	phys := run.perm[q]
	off := pe.Rank * d.S
	re, im := run.local.Re, run.local.Im
	var partial float64
	if phys < d.localBits {
		bit := 1 << uint(phys)
		for i := 0; i < d.S; i++ {
			if i&bit != 0 {
				partial += re[i]*re[i] + im[i]*im[i]
			}
		}
	} else if off>>uint(phys)&1 == 1 {
		for i := 0; i < d.S; i++ {
			partial += re[i]*re[i] + im[i]*im[i]
		}
	}
	p1 := pe.AllReduceSum(partial)
	outcome := 0
	if run.draw() < p1 {
		outcome = 1
	}
	pnorm := p1
	if outcome == 0 {
		pnorm = 1 - p1
	}
	scale := 1 / math.Sqrt(pnorm)
	if phys < d.localBits {
		bit := 1 << uint(phys)
		for i := 0; i < d.S; i++ {
			if (i&bit != 0) == (outcome == 1) {
				re[i] *= scale
				im[i] *= scale
			} else {
				re[i] = 0
				im[i] = 0
			}
		}
	} else if (off>>uint(phys)&1 == 1) == (outcome == 1) {
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
	return outcome
}
