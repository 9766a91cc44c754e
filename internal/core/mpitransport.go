package core

import (
	"time"

	"svsim/internal/gate"
	"svsim/internal/obs"
	"svsim/internal/pgas"
	"svsim/internal/sched"
)

// twoSided is the message-passing transport of the mpi backend:
// partitions are plain per-rank arrays, a gate that pairs amplitudes
// across partitions is handled by the traditional pack–exchange–compute
// scheme, and a remap chunk crosses as one pairwise send-receive
// (JUQCS: "swap local qubits with remote qubits by tracking and updating
// the permutation of the qubit indices", §6; the exchange body is the
// PGAS transport's too). The difference from the PGAS transport is
// exactly the communication mechanism, which is what the paper's
// comparison isolates.
type twoSided struct {
	*Grid
	comm *msgComm
	pack [][]float64 // per rank: a remote gate's 2S pack buffer (re then im), on first use
	win  [][]float64 // per rank: a remote gate's group window, on first use
	in   [][]float64 // per rank: a remap chunk's receive buffer, on first use
}

func twoSidedTransport(g *Grid) Transport {
	return &twoSided{Grid: g, comm: newMsgComm(g.Comm, g.Metrics),
		pack: make([][]float64, g.P), win: make([][]float64, g.P), in: make([][]float64, g.P)}
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

// Wire is a two-sided send-receive with peer: buf goes out, peer's
// chunk lands in this rank's receive buffer, and it returns once peer
// has taken buf. Each chunk is charged a pack and an unpack pass
// (notePack), the staging the traditional scheme pays around a message.
// The receive buffer is private, so one suffices: the rank unpacks it
// before its next Wire.
func (t *twoSided) Wire(pe *pgas.PE, peer, _ int, buf []float64) []float64 {
	in := scratch(&t.in[pe.Rank], 2*sched.ChunkAmps)[:len(buf)]
	n := int64(len(buf)) * 8
	t.comm.notePack(pe.Rank, n)
	t.comm.sendRecvInto(pe, peer, buf, in)
	t.comm.notePack(pe.Rank, n)
	return in
}
