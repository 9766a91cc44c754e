package core

import (
	"time"

	"svsim/internal/gate"
	"svsim/internal/obs"
	"svsim/internal/pgas"
	"svsim/internal/sched"
	"svsim/internal/statevec"
)

// twoSided is the message-passing transport of the mpi backend:
// partitions are plain per-rank arrays, a gate that pairs amplitudes
// across partitions is handled by the traditional pack–exchange–compute
// scheme, and a remap step is realized as pairwise half-partition
// exchanges (JUQCS: "swap local qubits with remote qubits by tracking and
// updating the permutation of the qubit indices", §6). The difference
// from the PGAS transport is exactly the communication mechanism, which
// is what the paper's comparison isolates.
type twoSided struct {
	*Grid
	comm *msgComm
	pack [][]float64 // per rank: 2S pack buffer (re then im), on first use
	win  [][]float64 // per rank: a remote gate's group window, on first use
}

func twoSidedTransport(g *Grid) Transport {
	return &twoSided{Grid: g, comm: newMsgComm(g.Comm, g.Metrics), pack: make([][]float64, g.P), win: make([][]float64, g.P)}
}

// Partition hands out plain private arrays: no rank ever addresses
// another's partition, everything crosses in messages.
func (t *twoSided) Partition(int) (re, im []float64) {
	return make([]float64, t.S), make([]float64, t.S)
}

func (t *twoSided) Counters(rank int) obs.SpanArgs {
	st := t.comm.statsOf(rank)
	return obs.SpanArgs{Msgs: st.Messages, MsgBytes: st.MsgBytes, PackBytes: st.PackBytes, Barriers: st.Syncs}
}

// RemoteGate is the traditional global-qubit strategy: the ranks whose
// ids differ only in the gate's global target bits form a group; every
// member packs its whole partition into one coarse message, sends it to
// every other member, and then computes its own new partition from the
// received snapshots, unpacked side by side into the group's window
// (GroupWindow). This is the "pack small messages into coarser
// transportation" pattern whose waiting and staging costs the paper
// calls out (§1, §2.1). A traced run records pack / wire / compute
// sub-spans in place of the parent gate span, so phase attribution sees
// inside the exchange.
func (t *twoSided) RemoteGate(pe *pgas.PE, r *Rank, g *gate.Gate, tr StepTrace) bool {
	c0 := t.comm.statsOf(pe.Rank)
	p0 := time.Now()
	pack := t.packPartition(pe.Rank, r)
	p1 := time.Now()
	tr.Span(" pack", p0, p1, obs.SpanArgs{Kind: "pack", Phase: obs.PhasePack, PackBytes: int64(2*t.S) * 8})
	gw := t.GroupWindow(r, g, &t.win[pe.Rank])
	for slot, peer := range gw.Peers {
		buf := pack
		if peer != pe.Rank {
			buf = t.comm.sendRecv(pe, peer, pack)
			t.comm.notePack(pe.Rank, int64(2*t.S)*8) // unpack pass on arrival
		}
		re, im := gw.Planes(slot)
		copy(re, buf[:t.S])
		copy(im, buf[t.S:])
	}
	w1 := time.Now()
	cw := t.comm.statsOf(pe.Rank)
	tr.Span(" wire", p1, w1, obs.SpanArgs{
		Kind: "wire", Phase: obs.PhaseWire,
		Msgs: cw.Messages - c0.Messages, MsgBytes: cw.MsgBytes - c0.MsgBytes,
	})
	gw.Apply(r)
	tr.Span(" exchange compute", w1, time.Now(), obs.SpanArgs{Kind: "compute", Phase: obs.PhaseCompute})
	return tr.On()
}

// packPartition copies the rank's whole partition into its pack buffer:
// one pass over 2S floats (plus modeled staging). Peers read the buffer
// they were sent until the grid sync that closes the gate, so it is not
// re-packed before then.
func (t *twoSided) packPartition(rank int, r *Rank) []float64 {
	if t.pack[rank] == nil {
		t.pack[rank] = make([]float64, 2*t.S)
	}
	pack := t.pack[rank]
	copy(pack[:t.S], r.Local.Re)
	copy(pack[t.S:], r.Local.Im)
	t.comm.notePack(rank, int64(2*t.S)*8)
	return pack
}

// Exchange realizes one phase of a remap as pairwise half-partition
// exchanges, one per bit swap of the phase. Under a topology the phase
// list puts the intra-node swaps first (disjoint transpositions
// commute), so the node-crossing links carry messages only for the swaps
// that genuinely cross. A pairwise exchange synchronizes only its pair:
// the loop's grid sync closes the step.
func (t *twoSided) Exchange(pe *pgas.PE, r *Rank, ph *sched.Phase, tr StepTrace) bool {
	for _, sw := range ph.Swaps {
		t.swapBits(pe, r, sw.Global, sw.Local, ph.Scope, tr)
	}
	return true
}

// swapBits physically exchanges global bit gBit with local bit lBit: each
// rank swaps the half of its partition where the local bit differs from
// its rank bit with its partner rank. Its pack / wire / unpack sub-spans
// carry the intra/inter sub-bucket of the phase's scope, and the message
// volume (S floats sent, counted once per rank like MsgBytes) lands in
// the matching bucket of the sending rank.
func (t *twoSided) swapBits(pe *pgas.PE, r *Rank, gBit, lBit int, scope sched.Scope, tr StepTrace) {
	b := gBit - t.LocalBits
	beta := pe.Rank >> uint(b) & 1
	partner := pe.Rank ^ 1<<uint(b)
	half := int64(t.S) * 8

	phPack, phWire, _, moved := r.Bucket(scope)
	if moved != nil {
		*moved += half
	}
	// The half to trade is the subcube with the local bit pinned to the
	// complement of the rank bit and every other local bit free.
	pinned := (1 - beta) << uint(lBit)
	free := make([]int, 0, t.LocalBits)
	for q := 0; q < t.LocalBits; q++ {
		if q != lBit {
			free = append(free, q)
		}
	}
	h := t.S / 2
	// A fresh buffer per swap: the partner still reads it after this rank
	// has moved on.
	buf := make([]float64, t.S) // S/2 re + S/2 im
	p0 := time.Now()
	statevec.GatherBits(buf[:h], r.Local.Re, pinned, free)
	statevec.GatherBits(buf[h:], r.Local.Im, pinned, free)
	t.comm.notePack(pe.Rank, half)
	p1 := time.Now()
	tr.Span(" pack", p0, p1, obs.SpanArgs{Kind: "pack", Phase: phPack, PackBytes: half})
	in := t.comm.sendRecv(pe, partner, buf)
	w1 := time.Now()
	tr.Span(" wire", p1, w1, obs.SpanArgs{Kind: "wire", Phase: phWire, Msgs: 1, MsgBytes: half})
	// Unpack into the vacated slots (same enumeration order).
	statevec.ScatterBits(r.Local.Re, in[:h], pinned, free)
	statevec.ScatterBits(r.Local.Im, in[h:], pinned, free)
	t.comm.notePack(pe.Rank, half)
	tr.Span(" unpack", w1, time.Now(), obs.SpanArgs{Kind: "unpack", Phase: obs.PhaseUnpack, PackBytes: half})
}
