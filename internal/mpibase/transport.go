package mpibase

import (
	"time"

	"svsim/internal/core"
	"svsim/internal/gate"
	"svsim/internal/obs"
	"svsim/internal/pgas"
	"svsim/internal/sched"
)

// twoSided is the message-passing transport of the shared distributed
// runtime: partitions are plain per-rank arrays, a gate that pairs
// amplitudes across partitions is handled by the traditional
// pack–exchange–compute scheme, and a remap step is realized as pairwise
// half-partition exchanges (JUQCS: "swap local qubits with remote qubits
// by tracking and updating the permutation of the qubit indices", §6).
// The difference from the PGAS transport is exactly the communication
// mechanism, which is what the paper's comparison isolates.
type twoSided struct {
	*core.Grid
	comm *Comm
	pack [][]float64 // per rank: 2S pack buffer (re then im), on first use
}

func newTwoSided(g *core.Grid, m *obs.Metrics) *twoSided {
	t := &twoSided{Grid: g, comm: NewComm(g.Comm), pack: make([][]float64, g.P)}
	t.comm.SetMetrics(m)
	return t
}

// Partition hands out plain private arrays: no rank ever addresses
// another's partition, everything crosses in messages.
func (t *twoSided) Partition(int) (re, im []float64) {
	return make([]float64, t.S), make([]float64, t.S)
}

func (t *twoSided) Counters(rank int) obs.SpanArgs {
	st := t.comm.StatsOf(rank)
	return obs.SpanArgs{Msgs: st.Messages, MsgBytes: st.MsgBytes, PackBytes: st.PackBytes, Barriers: st.Syncs}
}

// RemoteGate is the traditional global-qubit strategy: the ranks whose
// ids differ only in the gate's global target bits form a group; every
// member packs its whole partition into one coarse message, sends it to
// every other member, and then computes its own new partition from the
// received snapshots. This is the "pack small messages into coarser
// transportation" pattern whose waiting and staging costs the paper
// calls out (§1, §2.1). A traced run records pack / wire / compute
// sub-spans in place of the parent gate span, so phase attribution sees
// inside the exchange.
func (t *twoSided) RemoteGate(pe *pgas.PE, r *core.Rank, cls *gate.Class, tr core.StepTrace) bool {
	c0 := t.comm.StatsOf(pe.Rank)
	p0 := time.Now()
	pack := t.packPartition(pe.Rank, r)
	p1 := time.Now()
	tr.Span(" pack", p0, p1, obs.SpanArgs{Kind: "pack", Phase: obs.PhasePack, PackBytes: int64(2*t.S) * 8})
	bufs := t.exchangeGroup(pe, pack, t.groupMask(cls))
	w1 := time.Now()
	cw := t.comm.StatsOf(pe.Rank)
	tr.Span(" wire", p1, w1, obs.SpanArgs{
		Kind: "wire", Phase: obs.PhaseWire,
		Msgs: cw.Messages - c0.Messages, MsgBytes: cw.MsgBytes - c0.MsgBytes,
	})
	t.computeExchanged(pe.Rank, r, cls, bufs)
	tr.Span(" exchange compute", w1, time.Now(), obs.SpanArgs{Kind: "compute", Phase: obs.PhaseCompute})
	return tr.On()
}

// groupMask returns the rank-space bits that vary across the exchange
// group of a gate's global targets.
func (t *twoSided) groupMask(cls *gate.Class) int {
	var mask int
	for _, q := range cls.Targets {
		if q >= t.LocalBits {
			mask |= 1 << uint(q-t.LocalBits)
		}
	}
	return mask
}

// packPartition copies the rank's whole partition into its pack buffer:
// one pass over 2S floats (plus modeled staging). Peers read the buffer
// they were sent until the grid sync that closes the gate, so it is not
// re-packed before then.
func (t *twoSided) packPartition(rank int, r *core.Rank) []float64 {
	if t.pack[rank] == nil {
		t.pack[rank] = make([]float64, 2*t.S)
	}
	pack := t.pack[rank]
	copy(pack[:t.S], r.Local.Re)
	copy(pack[t.S:], r.Local.Im)
	t.comm.notePack(rank, int64(2*t.S)*8)
	return pack
}

// exchangeGroup sends the packed partition to every group member and
// collects their snapshots.
func (t *twoSided) exchangeGroup(pe *pgas.PE, pack []float64, groupMask int) map[int][]float64 {
	bufs := map[int][]float64{pe.Rank: pack}
	for bits := 1; bits <= groupMask; bits++ {
		if bits&^groupMask != 0 {
			continue
		}
		peer := pe.Rank ^ bits
		bufs[peer] = t.comm.SendRecv(pe, peer, pack)
		t.comm.notePack(pe.Rank, int64(2*t.S)*8) // unpack pass on arrival
	}
	return bufs
}

// computeExchanged computes the rank's new partition from the group's
// snapshots.
func (t *twoSided) computeExchanged(rank int, r *core.Rank, cls *gate.Class, bufs map[int][]float64) {
	re, im := r.Local.Re, r.Local.Im
	off := rank * t.S
	var cmask int
	for _, c := range cls.Ctrls {
		cmask |= 1 << uint(c)
	}
	sub := cls.U.N
	// Per target j, the XOR that moves a global index to the orbit
	// member with target bit j flipped.
	tbits := make([]int, len(cls.Targets))
	for j, q := range cls.Targets {
		tbits[j] = 1 << uint(q)
	}
	var touched int64
	newRe := make([]float64, t.S)
	newIm := make([]float64, t.S)
	copy(newRe, re)
	copy(newIm, im)
	for i := 0; i < t.S; i++ {
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
			buf := bufs[gb>>uint(t.LocalBits)]
			li := gb & (t.S - 1)
			br, bi := buf[li], buf[t.S+li]
			vr, vi := real(v), imag(v)
			sr += vr*br - vi*bi
			si += vr*bi + vi*br
		}
		newRe[i], newIm[i] = sr, si
		touched++
	}
	copy(re, newRe)
	copy(im, newIm)
	r.Extra.Gates++
	r.Extra.AmpsTouched += touched
	r.Extra.BytesTouched += touched * 16
	r.Extra.FlopEst += touched * 4 * int64(sub)
}

// Remap realizes a remap step's bit swaps as pairwise half-partition
// exchanges, then one grid sync. Under a topology the disjoint (and
// therefore commuting) swaps run intra-node first, so the node-crossing
// links carry messages only for the swaps that genuinely cross.
func (t *twoSided) Remap(pe *pgas.PE, r *core.Rank, si int, tr core.StepTrace) int {
	topo := t.Compiled.Topo
	for _, sw := range orderIntraFirst(t.Compiled.Plan.Steps[si].Swaps, t.LocalBits, topo) {
		t.swapBits(pe, r, sw.Global, sw.Local, topo, tr)
	}
	b0 := time.Now()
	pe.Barrier()
	tr.Barrier("", b0)
	return 0
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

// swapBits physically exchanges global bit gBit with local bit lBit: each
// rank swaps the half of its partition where the local bit differs from
// its rank bit with its partner rank. Its pack / wire / unpack sub-spans
// carry the intra/inter sub-bucket of the swap's locality under a
// topology, and the message volume (S floats sent, counted once per rank
// like MsgBytes) lands in the matching bucket of the sending rank.
func (t *twoSided) swapBits(pe *pgas.PE, r *core.Rank, gBit, lBit int, topo sched.Topology, tr core.StepTrace) {
	b := gBit - t.LocalBits
	beta := pe.Rank >> uint(b) & 1
	partner := pe.Rank ^ 1<<uint(b)
	half := int64(t.S) * 8

	phPack, phWire := obs.PhasePack, obs.PhaseWire
	if topo.Enabled() {
		if topo.SameNode(pe.Rank, partner) {
			phPack, phWire = obs.PhasePackIntra, obs.PhaseWireIntra
			r.IntraBytes += half
		} else {
			phPack, phWire = obs.PhasePackInter, obs.PhaseWireInter
			r.InterBytes += half
		}
	}
	// Pack elements whose local bit != rank bit.
	re, im := r.Local.Re, r.Local.Im
	buf := make([]float64, t.S) // S/2 re + S/2 im
	p0 := time.Now()
	k := 0
	for i := 0; i < t.S; i++ {
		if i>>uint(lBit)&1 != beta {
			buf[k] = re[i]
			buf[k+t.S/2] = im[i]
			k++
		}
	}
	t.comm.notePack(pe.Rank, half)
	p1 := time.Now()
	tr.Span(" pack", p0, p1, obs.SpanArgs{Kind: "pack", Phase: phPack, PackBytes: half})
	in := t.comm.SendRecv(pe, partner, buf)
	w1 := time.Now()
	tr.Span(" wire", p1, w1, obs.SpanArgs{Kind: "wire", Phase: phWire, Msgs: 1, MsgBytes: half})
	// Unpack into the vacated slots (same enumeration order).
	k = 0
	for i := 0; i < t.S; i++ {
		if i>>uint(lBit)&1 != beta {
			re[i] = in[k]
			im[i] = in[k+t.S/2]
			k++
		}
	}
	t.comm.notePack(pe.Rank, half)
	tr.Span(" unpack", w1, time.Now(), obs.SpanArgs{Kind: "unpack", Phase: obs.PhaseUnpack, PackBytes: half})
}
