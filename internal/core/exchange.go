package core

import (
	"time"

	"svsim/internal/obs"
	"svsim/internal/pgas"
	"svsim/internal/sched"
	"svsim/internal/statevec"
)

// exchange runs a remap step on rank r: the one exchange body both
// distributed transports execute, which moves every amplitude to where
// the step's swaps put it (sched.Exchange has the geometry). Step j
// trades one chunk of the region this rank shares with its round's peer:
// pack it (GatherBits), hand it to Transport.Wire, and unpack the chunk
// the peer sent into the same places (ScatterBits) — the region this
// rank sends is the region the peer's chunk lands in, so the exchange
// works in place and the region a rank shares with itself never moves.
// Only the wire differs between transports: a put into a chunk slot of
// the peer plus a fleet barrier, or a two-sided send-receive.
//
// The loop is double-buffered: chunk j+1 is packed into the buffer the
// wire of chunk j is not reading, while chunk j is on the wire (a helper
// goroutine runs Wire), so a pack overlaps a wire transfer. Each chunk
// gets a pack span, a wire span (launch to join, recorded at the join,
// just before the next pack span, which keeps the track's spans in start
// order) and an unpack span.
//
// Why no peer overwrites a chunk slot before its owner has unpacked it
// (the one-sided wire; the two-sided wire's receive buffer is private,
// and its send-receive returns only once the peer has copied buf).
// Count the exchange steps of the attempt globally — r.xstep, equal on
// every rank, continuing across remaps — and let step u land in slot
// u mod 2. A rank unpacks step u's chunk after its wire u returns and
// before it launches wire u+1, so before it arrives at barrier u+1. A
// peer puts step u+2's chunk only after its own barrier u+1 has
// released, which needs that arrival. The slot is therefore free across
// chunks, across rounds and across consecutive remaps alike: the first
// step of a remap lands in the slot the previous remap's last step did
// not use, and nothing between two remaps needs a barrier. So a remap
// pays one barrier per step and none at its entry or exit.
func (rt *runtime) exchange(pe *pgas.PE, r *Rank, ex *sched.Exchange, tr StepTrace) {
	s := pe.Rank
	L := ex.ChunkLen()
	steps := ex.Steps()
	var pack [2][]float64
	for i := range pack {
		pack[i] = scratch(&r.xpack[i], 2*sched.ChunkAmps)[:2*L]
	}
	gather := func(j int) {
		_, base, pos := ex.Step(s, j)
		buf := pack[j&1]
		statevec.GatherBits(buf[:L], r.Local.Re, base, pos)
		statevec.GatherBits(buf[L:], r.Local.Im, base, pos)
	}
	chunkArgs := func(kind, phase string) obs.SpanArgs {
		return obs.SpanArgs{Kind: kind, Phase: phase, PackBytes: int64(2*L) * 8}
	}
	p0 := time.Now()
	gather(0)
	tr.Span(" pack", p0, time.Now(), chunkArgs("pack", obs.PhasePack))
	for j := 0; j < steps; j++ {
		peer, base, pos := ex.Step(s, j)
		c0 := rt.t.Counters(s)
		w0 := time.Now()
		join := rt.asyncWire(pe, peer, r.xstep, pack[j&1])
		r.xstep++
		// Pack the next chunk while this one is on the wire; its span is
		// recorded after the wire span, which starts first.
		var p1 time.Time
		if j+1 < steps {
			p0 = time.Now()
			gather(j + 1)
			p1 = time.Now()
		}
		in := join()
		w1 := time.Now()
		// The pack and unpack spans carry the passes a two-sided wire
		// notes, so the wire span keeps only its traffic.
		d := spanDelta(c0, rt.t.Counters(s))
		d.Kind, d.Phase, d.PackBytes = "wire", obs.PhaseWire, 0
		tr.Span(" wire", w0, w1, d)
		if j+1 < steps {
			tr.Span(" pack", p0, p1, chunkArgs("pack", obs.PhasePack))
		}
		statevec.ScatterBits(r.Local.Re, in[:L], base, pos)
		statevec.ScatterBits(r.Local.Im, in[L:], base, pos)
		tr.Span(" unpack", w1, time.Now(), chunkArgs("unpack", obs.PhaseUnpack))
	}
	// Each moved amplitude is read once by a pack and written once by an
	// unpack.
	r.Extra.AmpsTouched += 2 * ex.MovedAmps()
	r.Extra.BytesTouched += 2 * ex.MovedAmps() * 16
}

// asyncWire runs Transport.Wire on a helper goroutine so the caller can
// pack the next chunk meanwhile, returning the join that yields the
// landed chunk. At most one wire is in flight per rank (the caller joins
// before launching the next), so the rank's statistics stay effectively
// single-writer, and the channel handoff publishes them back to the PE
// goroutine. A failure inside the wire (an injected kill, an exhausted
// retry budget, a fleet abort releasing its barrier or receive) unwinds
// the helper; join re-raises it on the PE goroutine so the abort reaches
// RunChecked's recover.
func (rt *runtime) asyncWire(pe *pgas.PE, peer, step int, buf []float64) func() []float64 {
	done := make(chan any, 1)
	var in []float64
	go func() {
		defer func() { done <- recover() }()
		in = rt.t.Wire(pe, peer, step, buf)
	}()
	return func() []float64 {
		if rec := <-done; rec != nil {
			panic(rec)
		}
		return in
	}
}
