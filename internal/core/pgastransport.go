package core

import (
	"math/bits"

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
// fine-grained get/put traffic, and a remap chunk crosses as one
// coalesced PutV into a slot of the peer plus a fleet barrier. In this
// reproduction both device classes are emulated by goroutine PEs over
// the instrumented heap; the two backends differ in which platform
// constants the performance model applies to the measured traffic
// (NVLink/NVSwitch vs network SHMEM).
type oneSided struct {
	*Grid
	svRe, svIm *pgas.SymF64
	slots      *pgas.SymF64 // two remap chunk slots per PE; nil unless the attempt exchanges
	scratch    [][]float64  // per PE, sized on first use: a remote gate's gather or group window
}

// oneSidedTransport is the transport of the PGAS backends.
func oneSidedTransport(g *Grid) Transport {
	t := &oneSided{Grid: g, scratch: make([][]float64, g.P)}
	t.svRe = g.Comm.NewSymF64(g.S)
	t.svIm = g.Comm.NewSymF64(g.S)
	for _, st := range g.Compiled.Plan.Steps[g.Start:] {
		if st.Kind == sched.StepRemap {
			t.slots = g.Comm.NewSymF64(2 * 2 * sched.ChunkAmps)
			break
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
// The element ops of a run of orbits are issued as one strided
// GetRun/PutRun per target row and array; pgas counts them per element,
// so the traffic is Listing 5's.
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

	// Consecutive orbits differ in the free bits from f0, the lowest one,
	// up to the next operand bit, so a run of them — capped at the batch —
	// finds each target row's elements stride apart.
	fixed := cmask | tmask
	f0 := bits.TrailingZeros(uint(^fixed))
	stride := 1 << uint(f0)
	run := min(batch, 1<<uint(bits.TrailingZeros(uint(fixed>>uint(f0))|1<<uint(t.N-f0))))

	// move gathers (or scatters) the batch of orbits starting at orbit i.
	move := func(i int, scatter bool) {
		for m := fixed; m != 0; m &= m - 1 {
			i = statevec.InsertZeroBit(i, bits.TrailingZeros(uint(m)))
		}
		for j := 0; j < batch; j += run {
			// Operand enumeration: controls pin to 1, targets run through
			// their settings in numeric order, a window row each.
			sub := 0
			for w := j; w < win.Dim; w += batch {
				gidx := i | cmask | sub
				re, im := win.Re[w:][:run], win.Im[w:][:run]
				if scatter {
					pe.PutRun(t.svRe, gidx, stride, re)
					pe.PutRun(t.svIm, gidx, stride, im)
				} else {
					pe.GetRun(t.svRe, gidx, stride, re)
					pe.GetRun(t.svIm, gidx, stride, im)
				}
				sub = (sub - tmask) & tmask
			}
			i = ((i | fixed | (stride*run - 1)) + 1) &^ fixed // the carry skips the operand bits
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

// Wire puts buf into slot step mod 2 of peer and waits at the
// fleet barrier that confirms every put of the step has landed; the
// chunk peer put for this rank is then in this rank's slot. The slot
// alternation is what lets a remap pay one barrier per step and none at
// its entry or exit (the argument is on the exchange body, exchange.go).
func (t *oneSided) Wire(pe *pgas.PE, peer, step int, buf []float64) []float64 {
	off := (step & 1) * 2 * sched.ChunkAmps
	pe.PutV(t.slots, peer, off, buf)
	pe.Barrier()
	return t.slots.PartitionUnsafe(pe.Rank)[off:][:len(buf)]
}
