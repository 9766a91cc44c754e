package mpibase

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"svsim/internal/circuit"
	"svsim/internal/compile"
	"svsim/internal/gate"
	"svsim/internal/obs"
	"svsim/internal/sched"
	"svsim/internal/statevec"
)

// RemapSimulator implements the qubit-remapping communication strategy of
// De Raedt et al.'s JUQCS, which the paper's related work describes as
// "swap local qubits with remote qubits by tracking and updating the
// permutation of the qubit indices" (§6). It is driven by the shared
// communication-avoiding scheduler (internal/sched): the circuit is
// planned once into blocks of gates on currently-local qubits separated
// by remap steps, and this backend realizes each remap's bit swaps as
// pairwise half-partition exchanges over two-sided messages — the same
// plan the PGAS lazy executor realizes as a coalesced all-to-all.
type RemapSimulator struct {
	cfg Config
}

// NewRemap creates a remapping simulator.
func NewRemap(cfg Config) *RemapSimulator { return &RemapSimulator{cfg: cfg} }

// RemapResult extends Result with scheduler statistics.
type RemapResult struct {
	Result
	BitSwaps int64 // global-local bit swaps performed
	Remaps   int64 // remap exchanges (a remap batches >= 1 swaps)
	// IntraBytes and InterBytes split the two-sided message volume by
	// node locality under Config.Topology; both zero on a flat run.
	IntraBytes int64
	InterBytes int64
	// Folded counts remap steps whose data movement was elided because
	// they act on |0...0> (topology runs only).
	Folded int64
}

// Run executes the circuit and returns the gathered, un-permuted result.
func (s *RemapSimulator) Run(c *circuit.Circuit) (*RemapResult, error) {
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
	dim := 1 << uint(n)
	S := dim / p
	localBits := n - bits.Len(uint(p-1))

	// One compile pass: block-aware fusion, the communication-avoiding
	// schedule, and the per-op classification (the upload step) all come
	// from the shared pipeline, possibly served from the plan cache.
	cp, cst, err := compile.Compile(c, compile.Config{
		Fuse:    s.cfg.Fuse,
		Sched:   sched.Lazy,
		PEs:     p,
		Cache:   s.cfg.Plans,
		Metrics: s.cfg.Metrics,
		Topo:    s.cfg.Topology,
	})
	if err != nil {
		return nil, err
	}
	c = cp.Circuit
	plan := cp.Plan

	eng := &remapEngine{n: n, p: p, S: S, localBits: localBits, topo: cp.Topo}

	eng.re = make([][]float64, p)
	eng.im = make([][]float64, p)
	runs := make([]remapRun, p)
	for r := 0; r < p; r++ {
		eng.re[r] = make([]float64, S)
		eng.im[r] = make([]float64, S)
		runs[r] = remapRun{
			local: &statevec.State{N: localBits, Dim: S, Re: eng.re[r], Im: eng.im[r], Base: r * S, Style: s.cfg.Style},
			rng:   rand.New(rand.NewSource(s.cfg.Seed)),
			perm:  circuit.IdentityPermutation(n),
		}
	}
	eng.re[0][0] = 1

	// blockOf attributes each plan step to a 1-based schedule block; a
	// remap closes the block it belongs to.
	blockOf := make([]int, len(plan.Steps))
	blk := 1
	for si := range plan.Steps {
		blockOf[si] = blk
		if plan.Steps[si].Kind == sched.StepRemap {
			blk++
		}
	}

	comm := NewComm(p)
	comm.SetMetrics(s.cfg.Metrics)
	comm.SetRecorder(s.cfg.Flight)
	gm := newGateObs(s.cfg.Metrics)
	start := time.Now()
	comm.Run(func(r *Rank) {
		run := &runs[r.R]
		trk := s.cfg.Trace.Track(r.R)
		for si := range plan.Steps {
			st := &plan.Steps[si]
			switch st.Kind {
			case sched.StepAlias:
				run.perm.SwapLogical(st.A, st.B)
			case sched.StepRemap:
				label := remapStepLabel(st.Swaps)
				// A folded remap acts on |0...0>, which every bit
				// permutation fixes: only the bookkeeping applies.
				if st.Folded {
					for _, sw := range st.Swaps {
						run.perm.SwapPhysical(sw.Global, sw.Local)
					}
					s.cfg.Flight.Record(r.R, obs.EventRemap, label+" folded", 0)
					continue
				}
				c0 := comm.StatsOf(r.R)
				// Under a topology the disjoint (and therefore commuting)
				// swaps run intra-node first, so the node-crossing links
				// carry messages only for the swaps that genuinely cross.
				// The traced variant replaces the single remap span with
				// per-swap pack/wire/unpack sub-spans plus a barrier span,
				// so phase attribution sees inside the exchange.
				for _, sw := range orderIntraFirst(st.Swaps, localBits, eng.topo) {
					if trk != nil {
						eng.swapBitsTraced(r, run, sw.Global, sw.Local, trk, label, blockOf[si])
					} else {
						eng.swapBits(r, run, sw.Global, sw.Local)
					}
				}
				b0 := time.Now()
				r.Barrier()
				if trk != nil {
					trk.SpanAt(label+" barrier", b0, time.Now(), obs.SpanArgs{
						Kind: "barrier", Phase: obs.PhaseBarrier, Block: blockOf[si], Barriers: 1})
				}
				c1 := comm.StatsOf(r.R)
				s.cfg.Flight.Record(r.R, obs.EventRemap, label, c1.MsgBytes-c0.MsgBytes)
			case sched.StepGate:
				op := &c.Ops[st.Op]
				if op.Cond != nil {
					mask := uint64(1)<<uint(op.Cond.Width) - 1
					if (run.cbits>>uint(op.Cond.Offset))&mask != op.Cond.Value {
						continue
					}
				}
				if trk == nil && gm == nil {
					eng.execOp(r, run, op)
					continue
				}
				c0 := comm.StatsOf(r.R)
				g0 := time.Now()
				eng.execOp(r, run, op)
				g1 := time.Now()
				gm.observe(op.G.Kind, g1.Sub(g0))
				if trk != nil {
					args := spanArgs(&op.G, c0, comm.StatsOf(r.R))
					args.Block = blockOf[si]
					trk.SpanAt(gateLabel(&op.G), g0, g1, args)
				}
			}
		}
	})
	elapsed := time.Since(start)

	// Gather and undo the final permutation: logical index x lives at the
	// physical index with bit Final[q] holding logical bit q.
	st := statevec.New(n)
	for r := 0; r < p; r++ {
		statevec.Unpermute(st.Re, eng.re[r], r, plan.Final)
		statevec.Unpermute(st.Im, eng.im[r], r, plan.Final)
	}
	res := &RemapResult{
		BitSwaps: int64(plan.BitSwaps),
		Remaps:   int64(plan.Remaps),
		Folded:   int64(plan.Folded),
	}
	res.State = st
	res.Compile = cst
	res.Cbits = runs[0].cbits
	res.MPI = comm.TotalStats()
	res.Elapsed = elapsed
	res.Ranks = p
	for r := range runs {
		res.SV.Add(runs[r].local.Stats)
		res.SV.Add(runs[r].extra)
		res.IntraBytes += runs[r].intraBytes
		res.InterBytes += runs[r].interBytes
	}
	if s.cfg.Trace != nil || s.cfg.Metrics != nil {
		res.Mem = obs.TakeMemSnapshot()
	}
	return res, nil
}

// orderIntraFirst returns a remap's swaps with the intra-node ones
// first. The scheduler emits disjoint transpositions, so they commute
// and any order lands the amplitudes identically; the order only decides
// which links the pairwise exchanges traverse when. With topology
// disabled the swaps come back unchanged.
func orderIntraFirst(swaps []sched.Swap, localBits int, topo sched.Topology) []sched.Swap {
	if !topo.Enabled() {
		return swaps
	}
	out := make([]sched.Swap, 0, len(swaps))
	for _, sw := range swaps {
		if !topo.InterBit(sw.Global, localBits) {
			out = append(out, sw)
		}
	}
	for _, sw := range swaps {
		if topo.InterBit(sw.Global, localBits) {
			out = append(out, sw)
		}
	}
	return out
}

func remapStepLabel(swaps []sched.Swap) string {
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

// remapRun is the per-rank mutable state; each rank replays its own copy
// of the permutation, so no cross-rank bookkeeping writes exist.
type remapRun struct {
	local *statevec.State
	rng   *rand.Rand
	cbits uint64
	extra statevec.Stats
	perm  circuit.Permutation
	// intraBytes/interBytes split this rank's remap message volume by
	// node locality under the run's topology; zero on a flat run.
	intraBytes int64
	interBytes int64
	_          [64]byte
}

type remapEngine struct {
	n, p, S, localBits int
	re, im             [][]float64
	topo               sched.Topology
}

// execOp applies one circuit op at its current physical positions. The
// planner guarantees every non-diagonal unitary target is already local.
func (e *remapEngine) execOp(r *Rank, run *remapRun, op *circuit.Op) {
	g := &op.G
	switch g.Kind {
	case gate.BARRIER:
		return
	case gate.MEASURE:
		out := e.measure(r, run, int(g.Qubits[0]), run.rng.Float64())
		if out == 1 {
			run.cbits |= uint64(1) << uint(g.Cbit)
		} else {
			run.cbits &^= uint64(1) << uint(g.Cbit)
		}
		return
	case gate.RESET:
		if e.measure(r, run, int(g.Qubits[0]), run.rng.Float64()) == 1 {
			x := gate.NewX(run.perm[int(g.Qubits[0])])
			run.local.Apply(&x)
		}
		return
	}
	// The op runs on the partition window (base rank*S) at its current
	// physical positions; the kernel resolves the global ones.
	pg := run.perm.PhysicalGate(g)
	run.local.Apply(&pg)
	r.Barrier()
}

// swapBits physically exchanges global bit gBit with local bit lBit: each
// rank swaps the half of its partition where the local bit differs from
// its rank bit with its partner rank, then updates its permutation copy.
func (e *remapEngine) swapBits(r *Rank, run *remapRun, gBit, lBit int) {
	b := gBit - e.localBits
	beta := r.R >> uint(b) & 1
	partner := r.R ^ 1<<uint(b)

	// Pack elements whose local bit != rank bit.
	re, im := e.re[r.R], e.im[r.R]
	buf := make([]float64, e.S) // S/2 re + S/2 im
	k := 0
	for i := 0; i < e.S; i++ {
		if i>>uint(lBit)&1 != beta {
			buf[k] = re[i]
			buf[k+e.S/2] = im[i]
			k++
		}
	}
	r.notePack(int64(e.S) * 8)
	e.noteLocality(run, r.R, partner)
	in := r.SendRecv(partner, buf)
	// Unpack into the vacated slots (same enumeration order).
	k = 0
	for i := 0; i < e.S; i++ {
		if i>>uint(lBit)&1 != beta {
			re[i] = in[k]
			im[i] = in[k+e.S/2]
			k++
		}
	}
	r.notePack(int64(e.S) * 8)
	run.perm.SwapPhysical(gBit, lBit)
}

// noteLocality attributes one swap's message volume (S floats sent,
// counted once per rank like MsgBytes) to the intra- or inter-node
// bucket of the sending rank.
func (e *remapEngine) noteLocality(run *remapRun, rank, partner int) {
	if !e.topo.Enabled() {
		return
	}
	if e.topo.SameNode(rank, partner) {
		run.intraBytes += int64(e.S) * 8
	} else {
		run.interBytes += int64(e.S) * 8
	}
}

// swapBitsTraced is swapBits with phase-attributed pack/wire/unpack
// sub-spans on the rank's track; under a topology the pack and wire
// spans carry the intra/inter sub-bucket of the swap's locality.
func (e *remapEngine) swapBitsTraced(r *Rank, run *remapRun, gBit, lBit int, trk *obs.Track, label string, block int) {
	b := gBit - e.localBits
	beta := r.R >> uint(b) & 1
	partner := r.R ^ 1<<uint(b)

	phPack, phWire := obs.PhasePack, obs.PhaseWire
	if e.topo.Enabled() {
		if e.topo.SameNode(r.R, partner) {
			phPack, phWire = obs.PhasePackIntra, obs.PhaseWireIntra
		} else {
			phPack, phWire = obs.PhasePackInter, obs.PhaseWireInter
		}
	}
	re, im := e.re[r.R], e.im[r.R]
	buf := make([]float64, e.S) // S/2 re + S/2 im
	p0 := time.Now()
	k := 0
	for i := 0; i < e.S; i++ {
		if i>>uint(lBit)&1 != beta {
			buf[k] = re[i]
			buf[k+e.S/2] = im[i]
			k++
		}
	}
	r.notePack(int64(e.S) * 8)
	e.noteLocality(run, r.R, partner)
	p1 := time.Now()
	trk.SpanAt(label+" pack", p0, p1, obs.SpanArgs{
		Kind: "pack", Phase: phPack, Block: block, PackBytes: int64(e.S) * 8})
	in := r.SendRecv(partner, buf)
	w1 := time.Now()
	trk.SpanAt(label+" wire", p1, w1, obs.SpanArgs{
		Kind: "wire", Phase: phWire, Block: block,
		Msgs: 1, MsgBytes: int64(e.S) * 8})
	k = 0
	for i := 0; i < e.S; i++ {
		if i>>uint(lBit)&1 != beta {
			re[i] = in[k]
			im[i] = in[k+e.S/2]
			k++
		}
	}
	r.notePack(int64(e.S) * 8)
	trk.SpanAt(label+" unpack", w1, time.Now(), obs.SpanArgs{
		Kind: "unpack", Phase: obs.PhaseUnpack, Block: block, PackBytes: int64(e.S) * 8})
	run.perm.SwapPhysical(gBit, lBit)
}

// measure performs a projective measurement of the LOGICAL qubit q at its
// current physical position: a local bit sums pair-wise within the
// partition, a global (rank) bit sums whole partitions; the draw is
// replicated across ranks.
func (e *remapEngine) measure(r *Rank, run *remapRun, q int, draw float64) int {
	phys := run.perm[q]
	off := r.R * e.S
	re, im := run.local.Re, run.local.Im
	var partial float64
	if phys < e.localBits {
		bit := 1 << uint(phys)
		for i := 0; i < e.S; i++ {
			if i&bit != 0 {
				partial += re[i]*re[i] + im[i]*im[i]
			}
		}
	} else if off>>uint(phys)&1 == 1 {
		for i := 0; i < e.S; i++ {
			partial += re[i]*re[i] + im[i]*im[i]
		}
	}
	p1 := r.AllReduceSum(partial)
	outcome := 0
	if draw < p1 {
		outcome = 1
	}
	pnorm := p1
	if outcome == 0 {
		pnorm = 1 - p1
	}
	scale := 1 / math.Sqrt(pnorm)
	if phys < e.localBits {
		bit := 1 << uint(phys)
		for i := 0; i < e.S; i++ {
			if (i&bit != 0) == (outcome == 1) {
				re[i] *= scale
				im[i] *= scale
			} else {
				re[i], im[i] = 0, 0
			}
		}
	} else if (off>>uint(phys)&1 == 1) == (outcome == 1) {
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
