package core

import (
	"math/bits"
	"time"

	"svsim/internal/gate"
	"svsim/internal/obs"
	"svsim/internal/pgas"
	"svsim/internal/sched"
	"svsim/internal/statevec"
)

// oneSided is the PGAS transport of the scale-up backend (peer
// pointer-array access, Listing 4) and the scale-out backend (SHMEM
// one-sided access, Listing 5): partitions live in the symmetric heap, a
// gate that pairs amplitudes across partitions pays the paper's
// fine-grained get/put traffic, and each phase of a remap is one
// coalesced all-to-all of PutV blocks. In this reproduction both device
// classes are emulated by goroutine PEs over the instrumented heap; the
// two backends differ in which platform constants the performance model
// applies to the measured traffic (NVLink/NVSwitch vs network SHMEM).
type oneSided struct {
	*Grid
	svRe, svIm *pgas.SymF64
	stage      *pgas.SymF64 // 2S staging floats per PE; nil unless the plan exchanges
	scratch    [][]float64  // per PE, sized on first use: the naive plan's gather window or the lazy plan's 2S pack halves

	// Barrier domains of the node- and rail-scope phases, nil on a flat
	// run (the fleet scope's domain is the fleet barrier).
	nodeGrp []*pgas.Group // per node: that node's PEs
	railGrp []*pgas.Group // per within-node position: its ranks across nodes
}

// oneSidedTransport is the transport of the PGAS backends.
func oneSidedTransport(g *Grid) Transport {
	t := &oneSided{Grid: g, scratch: make([][]float64, g.P)}
	t.svRe = g.Comm.NewSymF64(g.S)
	t.svIm = g.Comm.NewSymF64(g.S)
	if plan := g.Compiled.Plan; plan.Remaps > plan.Folded {
		t.stage = g.Comm.NewSymF64(2 * g.S)
	}
	if topo := g.Compiled.Topo; topo.Enabled() && g.P > 1 {
		// One group per node (its consecutive ranks) and one per
		// within-node position (its "rail" of ranks across nodes): each
		// exchange phase synchronizes only the ranks it couples instead
		// of stopping the whole fleet.
		ppn := topo.PEsPerNode
		if ppn > g.P {
			ppn = g.P
		}
		t.nodeGrp = make([]*pgas.Group, topo.Nodes(g.P))
		for nd := range t.nodeGrp {
			ranks := make([]int, ppn)
			for i := range ranks {
				ranks[i] = nd*ppn + i
			}
			t.nodeGrp[nd] = g.Comm.Group(ranks)
		}
		t.railGrp = make([]*pgas.Group, ppn)
		for w := range t.railGrp {
			var ranks []int
			for r := w; r < g.P; r += ppn {
				ranks = append(ranks, r)
			}
			t.railGrp[w] = g.Comm.Group(ranks)
		}
	}
	return t
}

func (t *oneSided) Partition(rank int) (re, im []float64) {
	return t.svRe.PartitionUnsafe(rank), t.svIm.PartitionUnsafe(rank)
}

func (t *oneSided) Counters(rank int) obs.SpanArgs {
	c := t.Comm.StatsOf(rank)
	return obs.SpanArgs{
		LocalBytes:  c.LocalBytes,
		RemoteBytes: c.RemoteBytes,
		LocalMsgs:   c.LocalGets + c.LocalPuts,
		RemoteMsgs:  c.RemoteMessages(),
		Barriers:    c.Barriers,
	}
}

func (t *oneSided) RemoteGate(pe *pgas.PE, r *Rank, g *gate.Gate, _ StepTrace) bool {
	if len(g.Targets()) == 1 && t.Coalesced {
		t.applyRemoteCoalesced(pe, r, g)
	} else {
		t.applyRemoteGeneric(pe, r, g)
	}
	return false
}

// gatherAmps is the amplitude capacity of the fine-grained path's gather
// window: 512 orbits of a 1-target gate, 16 KiB of scratch per PE.
const gatherAmps = 1024

// applyRemoteGeneric is the paper's fine-grained remote path: the orbit
// index space is chunked evenly across PEs; each PE gathers the
// amplitudes of its orbits one-sided, a batch at a time, applies the
// gate's kernel, and scatters the results back (Listing 5's
// nvshmem_double_g / nvshmem_double_p around the specialized gate body).
// A batch is a window of its own: the orbit's index in the batch is the
// low bits, the targets sit right above them, and the controls — pinned
// to 1 by the orbit enumeration — sit above the window in its Base.
func (t *oneSided) applyRemoteGeneric(pe *pgas.PE, r *Rank, g *gate.Gate) {
	var tmask int
	for _, q := range g.Targets() {
		tmask |= 1 << uint(q)
	}
	cmask := int(g.ControlMask())
	k, nc := bits.OnesCount(uint(tmask)), bits.OnesCount(uint(cmask))

	total := (t.S * t.P) >> uint(k+nc)
	chunk := (total + t.P - 1) / t.P
	lo := pe.Rank * chunk
	hi := min(lo+chunk, total)
	// total and P are powers of two, so chunk is one and batches tile it.
	lb := bits.Len(uint(min(chunk, gatherAmps>>uint(k)))) - 1
	batch := 1 << uint(lb)

	// Targets keep their order of position, so that counting through
	// their settings counts through the window's rows.
	wg := relabel(t.N, tmask, cmask, lb).PhysicalGate(g)
	buf := scratch(&t.scratch[pe.Rank], 2*gatherAmps)
	win := statevec.State{N: lb + k, Dim: batch << uint(k), Base: (1<<uint(nc) - 1) << uint(lb+k), Style: r.Local.Style}
	win.Re, win.Im = buf[:win.Dim], buf[gatherAmps:][:win.Dim]

	// move gathers (or scatters) the batch of orbits starting at orbit i.
	move := func(i int, scatter bool) {
		re, im, fixed := win.Re, win.Im, cmask|tmask
		for m := fixed; m != 0; m &= m - 1 {
			i = statevec.InsertZeroBit(i, bits.TrailingZeros(uint(m)))
		}
		for j := 0; j < batch; j++ {
			// Operand enumeration: controls pin to 1, targets run through
			// their settings in numeric order.
			sub := 0
			for w := j; w < len(re); w += batch {
				gidx := i | cmask | sub
				if scatter {
					pe.GlobalPut(t.svRe, gidx, re[w])
					pe.GlobalPut(t.svIm, gidx, im[w])
				} else {
					re[w] = pe.GlobalGet(t.svRe, gidx)
					im[w] = pe.GlobalGet(t.svIm, gidx)
				}
				sub = (sub - tmask) & tmask
			}
			i = ((i | fixed) + 1) &^ fixed // the carry skips the operand bits
		}
	}
	var amps, flops int64
	for i := lo; i < hi; i += batch {
		move(i, false)
		a, f := win.ApplyTile(&wg, 0, win.Dim)
		amps, flops = amps+a, flops+f
		move(i, true)
	}
	r.chargeRemote(amps, flops)
}

// applyRemoteCoalesced handles a 1-target gate on a global qubit by a bulk
// block exchange: each PE fetches its partner's whole partition with one
// coalesced get per array, then updates its own partition locally. This is
// the warp-coalesced NVSHMEM access pattern the paper recommends.
func (t *oneSided) applyRemoteCoalesced(pe *pgas.PE, r *Rank, g *gate.Gate) {
	gw := t.GroupWindow(r, g, &t.scratch[pe.Rank])
	for slot, peer := range gw.Peers {
		re, im := gw.Planes(slot)
		if peer == pe.Rank {
			copy(re, r.Local.Re)
			copy(im, r.Local.Im)
			continue
		}
		pe.GetV(t.svRe, peer, 0, re)
		pe.GetV(t.svIm, peer, 0, im)
	}
	// All reads must complete before anyone overwrites its partition.
	pe.Barrier()
	gw.Apply(r)
}

// packBlock gathers the block of this PE's partition headed to dst — the
// affine subcube with the out-bits pinned to dst's rank bits — into buf,
// re plane then im plane.
func (t *oneSided) packBlock(buf []float64, r *Rank, ex *sched.Exchange, dst int) {
	B := ex.BlockLen
	pinned := ex.PinnedVal(dst, t.LocalBits)
	statevec.GatherBits(buf[:B], r.Local.Re, pinned, ex.FreeBits)
	statevec.GatherBits(buf[B:], r.Local.Im, pinned, ex.FreeBits)
}

// unpackBlocks scatters every block that landed in this PE's staging
// area to its place in the partition.
func (t *oneSided) unpackBlocks(rank int, r *Rank, ex *sched.Exchange) {
	B := ex.BlockLen
	stg := t.stage.PartitionUnsafe(rank)
	for src := 0; src < t.P; src++ {
		if !ex.Compat[src][rank] {
			continue
		}
		blk := stg[2*ex.OffElems[src][rank]:][:2*B]
		statevec.ScatterBits(r.Local.Re, blk[:B], ex.InBase[src], ex.ImgFree)
		statevec.ScatterBits(r.Local.Im, blk[B:], ex.InBase[src], ex.ImgFree)
	}
	r.Extra.AmpsTouched += 2 * int64(t.S)
	r.Extra.BytesTouched += 2 * int64(t.S) * 16
}

// sync is one barrier over the domain an exchange phase's scope names:
// the PE's node group, its rail — the ranks holding the same
// within-node position across all nodes — or the whole fleet.
func (t *oneSided) sync(pe *pgas.PE, scope sched.Scope) {
	switch scope {
	case sched.ScopeNode:
		t.nodeGrp[t.Compiled.Topo.Node(pe.Rank)].Barrier(pe)
	case sched.ScopeRail:
		t.railGrp[pe.Rank%len(t.railGrp)].Barrier(pe)
	default:
		pe.Barrier()
	}
}

// Exchange runs one phase of a remap as a batched all-to-all over the
// barrier domain its scope names: each PE packs one contiguous block
// per destination, puts it into the destination's staging area with a
// single coalesced transfer, and after the domain's barrier unpacks its
// own staging into its partition. The flat remap is the one fleet-scope
// phase; under a topology a remap runs its node phase (all compatible
// pairs share a node) and then its minimal rail phase, which realize
// disjoint transpositions, so their composition lands every amplitude
// exactly where the fleet phase would — bit-identically — while each
// phase stops only the ranks it couples.
//
// The per-phase protocol is: entry barrier, pipelined pack+put, mid
// barrier (all of this phase's blocks have landed), unpack — and no
// exit barrier, because the next phase's (or the next remap's) entry
// barrier already orders every later write into this PE's staging area
// after the unpack reads below. The entry barrier is what makes the
// single staging buffer safe: a peer can only reach its puts after every
// member of the domain — in particular every PE it targets — has
// finished reading its staging from the previous phase.
//
// The pack/put loop is double-buffered: block k+1 is packed into the
// half of the scratch buffer the in-flight put is not reading, then
// put k is joined and put k+1 launched, so the pack of block k+1
// overlaps the wire transfer of block k. Every phase moves at least one
// local bit out, so 2 blocks fit the 2S-float scratch.
//
// Each destination block gets a pack span (the buffer fill) and a wire
// span (put launch to join), labeled pack/wire on the fleet scope and
// pack.intra/wire.intra or pack.inter/wire.inter on the node and rail
// scopes so attribution separates same-node from node-crossing exchange
// time. The timeline exhibits the pipeline directly: the pack span of
// block k+1 starts before the wire span of block k ends. Wire span k is
// recorded at its join, just before pack span k+1, which keeps the
// track's nondecreasing-start contract.
func (t *oneSided) Exchange(pe *pgas.PE, r *Rank, ph *sched.Phase, tr StepTrace) bool {
	s := pe.Rank
	B := ph.BlockLen
	phPack, phWire, sub, moved := r.Bucket(ph.Scope)
	b0 := time.Now()
	t.sync(pe, ph.Scope)
	tr.Barrier(sub, b0)
	var join func()
	var wStart time.Time
	var wc0 pgas.Stats
	finish := func() { // join the put in flight and attribute its traffic to a wire span
		join()
		c := t.Comm.StatsOf(s)
		tr.Span(sub+" wire", wStart, time.Now(), obs.SpanArgs{
			Kind: "wire", Phase: phWire,
			LocalBytes:  c.LocalBytes - wc0.LocalBytes,
			RemoteBytes: c.RemoteBytes - wc0.RemoteBytes,
			LocalMsgs:   (c.LocalGets + c.LocalPuts) - (wc0.LocalGets + wc0.LocalPuts),
			RemoteMsgs:  c.RemoteMessages() - wc0.RemoteMessages(),
		})
	}
	pack := scratch(&t.scratch[s], 2*t.S)
	half := 0
	for dst := 0; dst < t.P; dst++ {
		if !ph.Compat[s][dst] {
			continue
		}
		buf := pack[half : half+2*B]
		p0 := time.Now()
		t.packBlock(buf, r, ph.Exchange, dst)
		p1 := time.Now()
		if join != nil {
			finish()
		}
		tr.Span(sub+" pack", p0, p1, obs.SpanArgs{Kind: "pack", Phase: phPack, PackBytes: int64(2*B) * 8})
		wc0 = t.Comm.StatsOf(s)
		wStart = time.Now()
		join = t.asyncPut(pe, dst, 2*ph.OffElems[s][dst], buf)
		half ^= 2 * B
		if dst != s && moved != nil {
			*moved += int64(2*B) * 8
		}
	}
	if join != nil {
		finish()
	}
	mb0 := time.Now()
	t.sync(pe, ph.Scope)
	u0 := tr.Barrier(sub, mb0)
	t.unpackBlocks(s, r, ph.Exchange)
	// A remap is a permutation: the blocks unpacked are one partition's worth.
	tr.Span(sub+" unpack", u0, time.Now(), obs.SpanArgs{Kind: "unpack", Phase: obs.PhaseUnpack, PackBytes: int64(2*t.S) * 8})
	return false
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
func (t *oneSided) asyncPut(pe *pgas.PE, dst, off int, buf []float64) func() {
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		pe.PutV(t.stage, dst, off, buf)
	}()
	return func() {
		if rec := <-done; rec != nil {
			panic(rec)
		}
	}
}
