// Package pgas implements the PGAS/SHMEM communication substrate that
// SV-Sim's scale-out backend runs on (paper §2.2, §3.2.3). It reproduces
// the OpenSHMEM/NVSHMEM programming model — SPMD processing elements, a
// symmetric heap, one-sided put/get, barriers, and collectives — over
// goroutines sharing an address space.
//
// The paper's hardware (NVLink/NVSwitch peers, InfiniBand NICs with
// GPUDirect-RDMA) is replaced by instrumented shared memory: every
// one-sided operation is classified local vs remote and tallied per PE, so
// the communication volumes that drive the scale-out figures (Fig. 12/13)
// are measured quantities. The platform performance model turns those
// counts into modeled latencies; functional results are exact either way.
package pgas

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"svsim/internal/fault"
	"svsim/internal/obs"
)

// Stats counts one-sided traffic for one PE or aggregated over a Comm.
// A "message" is one put or get call; vector calls count once (modeling
// the paper's warp-coalesced NVSHMEM accesses) with their full byte count.
type Stats struct {
	LocalGets   int64
	LocalPuts   int64
	RemoteGets  int64
	RemotePuts  int64
	LocalBytes  int64
	RemoteBytes int64
	Barriers    int64
	Collectives int64
	// Retries counts one-sided operations re-issued after a transient
	// completion failure (only fault injection produces those today).
	Retries int64
}

// Add merges o into s.
func (s *Stats) Add(o Stats) {
	s.LocalGets += o.LocalGets
	s.LocalPuts += o.LocalPuts
	s.RemoteGets += o.RemoteGets
	s.RemotePuts += o.RemotePuts
	s.LocalBytes += o.LocalBytes
	s.RemoteBytes += o.RemoteBytes
	s.Barriers += o.Barriers
	s.Collectives += o.Collectives
	s.Retries += o.Retries
}

// RemoteMessages returns the total one-sided remote operation count.
func (s Stats) RemoteMessages() int64 { return s.RemoteGets + s.RemotePuts }

func (s Stats) String() string {
	out := fmt.Sprintf("local(get=%d put=%d bytes=%d) remote(get=%d put=%d bytes=%d) barriers=%d collectives=%d",
		s.LocalGets, s.LocalPuts, s.LocalBytes, s.RemoteGets, s.RemotePuts, s.RemoteBytes, s.Barriers, s.Collectives)
	if s.Retries > 0 {
		out += fmt.Sprintf(" retries=%d", s.Retries)
	}
	return out
}

// peState is the per-PE mutable state, padded so adjacent PEs' counters do
// not share cache lines.
type peState struct {
	stats Stats
	_     [64]byte
}

// Comm is a communicator over P processing elements. Construct with
// NewComm, allocate symmetric arrays, then enter SPMD execution with Run.
type Comm struct {
	P int

	bar        *barrier
	pes        []peState
	scratchF   [2][]float64 // double-buffered collective scratch
	scratchU   [2][]uint64
	launchOnce sync.Once
	groupState // sub-communicator barrier registry (group.go)

	// Resilience knobs, nil/zero when off (see resilience.go).
	abortCh   chan struct{} // closed at the first PE failure
	abortOnce sync.Once
	abortErr  error // the failure that closed abortCh
	inj       *fault.Injector
	tmo       Timeouts
	rec       *obs.FlightRecorder

	// Optional metrics handles, nil when no registry is attached; the
	// one-sided ops and Barrier pay only a nil check then.
	putBytes    *obs.Histogram
	getBytes    *obs.Histogram
	barrierNS   *obs.Histogram
	remoteBytes *obs.Counter
	localBytes  *obs.Counter
}

// SetMetrics attaches a metrics registry: one-sided put/get sizes and
// barrier wait times are recorded as histograms, and local/remote byte
// volumes as counters, from then on. Call before entering an SPMD
// region; a nil registry detaches.
func (c *Comm) SetMetrics(m *obs.Metrics) {
	if m == nil {
		c.putBytes, c.getBytes, c.barrierNS = nil, nil, nil
		c.remoteBytes, c.localBytes = nil, nil
		return
	}
	c.putBytes = m.Histogram(obs.MetricPutBytes, obs.SizeBuckets())
	c.getBytes = m.Histogram(obs.MetricGetBytes, obs.SizeBuckets())
	c.barrierNS = m.Histogram(obs.MetricBarrierWaitNS, obs.LatencyBuckets())
	c.remoteBytes = m.Counter(obs.MetricRemoteBytes)
	c.localBytes = m.Counter(obs.MetricLocalBytes)
}

// NewComm creates a communicator with p processing elements (p >= 1).
func NewComm(p int) *Comm {
	if p < 1 {
		panic("pgas: communicator needs at least one PE")
	}
	c := &Comm{
		P:       p,
		bar:     newBarrier(p),
		pes:     make([]peState, p),
		abortCh: make(chan struct{}),
	}
	for i := range c.scratchF {
		c.scratchF[i] = make([]float64, p)
		c.scratchU[i] = make([]uint64, p)
	}
	return c
}

// Run executes fn on every PE concurrently (the SPMD launch, analogous to
// nvshmemx_collective_launch in the paper's Listing 5) and blocks until
// all PEs return. With no injector or timeouts attached no failure can
// occur; if one does (a fault-injected region launched through Run
// instead of RunChecked), Run panics with the RunError.
func (c *Comm) Run(fn func(pe *PE)) {
	if err := c.RunChecked(fn); err != nil {
		panic(err)
	}
}

// TotalStats aggregates per-PE counters. Call only when no SPMD region is
// executing.
func (c *Comm) TotalStats() Stats {
	var t Stats
	for i := range c.pes {
		t.Add(c.pes[i].stats)
	}
	return t
}

// StatsOf returns the counters of a single PE.
func (c *Comm) StatsOf(rank int) Stats { return c.pes[rank].stats }

// ResetStats zeroes all counters.
func (c *Comm) ResetStats() {
	for i := range c.pes {
		c.pes[i].stats = Stats{}
	}
}

// PE is the handle a processing element uses inside an SPMD region. All
// methods are to be called only from that PE's goroutine.
type PE struct {
	Rank int
	comm *Comm

	collSeq uint64     // collective call sequence for double buffering
	jrng    *rand.Rand // lazily seeded backoff-jitter stream
}

// NPEs returns the communicator size.
func (pe *PE) NPEs() int { return pe.comm.P }

// Barrier synchronizes all PEs (shmem_barrier_all). Returns only after
// every PE has arrived; establishes happens-before for all prior puts.
// With a Timeouts.Barrier deadline configured, a wait that exceeds it
// fails this PE with a BarrierTimeoutError naming the stalled ranks and
// aborts the fleet (see resilience.go); the fleet never hangs.
func (pe *PE) Barrier() {
	pe.comm.pes[pe.Rank].stats.Barriers++
	if in := pe.comm.inj; in != nil {
		v := in.BarrierEvent(pe.Rank)
		if v.Delay > 0 {
			pe.comm.rec.Record(pe.Rank, obs.EventFaultInjected,
				"barrier delay "+v.Delay.String(), 0)
			time.Sleep(v.Delay)
		}
		if v.Kill != nil {
			pe.comm.rec.Record(pe.Rank, obs.EventFaultInjected,
				"barrier kill: "+v.Kill.Error(), 0)
			pe.fail(v.Kill)
		}
	}
	var err error
	if h := pe.comm.barrierNS; h != nil {
		t0 := time.Now()
		err = pe.comm.bar.await(pe.Rank, pe.comm.tmo.Barrier)
		h.Observe(float64(time.Since(t0).Nanoseconds()))
	} else {
		err = pe.comm.bar.await(pe.Rank, pe.comm.tmo.Barrier)
	}
	if err != nil {
		pe.fail(err)
	}
}

// barrier is a reusable generation-counting barrier with optional
// per-waiter deadlines and a fleet-abort latch.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	p       int
	count   int
	gen     uint64
	arrived []bool // this generation's arrivals, for stall attribution
	abort   error  // first fleet failure; wakes and unwinds all waiters
}

func newBarrier(p int) *barrier {
	b := &barrier{p: p, arrived: make([]bool, p)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await blocks rank until all PEs arrive. It returns a typed error —
// without releasing the barrier — when the fleet has aborted or the
// deadline expires; the caller unwinds the PE. A timed-out or aborted
// waiter retracts its arrival so the barrier stays consistent.
func (b *barrier) await(rank int, deadline time.Duration) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.abort != nil {
		return &AbortError{Rank: rank, Cause: b.abort}
	}
	gen := b.gen
	b.count++
	b.arrived[rank] = true
	if b.count == b.p {
		b.count = 0
		b.gen++
		for i := range b.arrived {
			b.arrived[i] = false
		}
		b.cond.Broadcast()
		return nil
	}
	var expired bool
	if deadline > 0 {
		t := time.AfterFunc(deadline, func() {
			b.mu.Lock()
			expired = true
			b.cond.Broadcast()
			b.mu.Unlock()
		})
		defer t.Stop()
	}
	for gen == b.gen && b.abort == nil && !expired {
		b.cond.Wait()
	}
	switch {
	case gen != b.gen: // released normally (even if abort/expiry raced in)
		return nil
	case b.abort != nil:
		b.count--
		b.arrived[rank] = false
		return &AbortError{Rank: rank, Cause: b.abort}
	default: // expired
		stalled := b.stalledRanks()
		b.count--
		b.arrived[rank] = false
		return &BarrierTimeoutError{Rank: rank, Stalled: stalled, Deadline: deadline}
	}
}

// AllReduceSum returns the sum of v over all PEs (shmem collective),
// added as a balanced binary tree over the ranks.
func (pe *PE) AllReduceSum(v float64) float64 {
	c := pe.comm
	buf := c.scratchF[pe.collSeq&1]
	pe.collSeq++
	pe.comm.pes[pe.Rank].stats.Collectives++
	buf[pe.Rank] = v
	pe.Barrier()
	s := treeSum(buf)
	pe.Barrier()
	return s
}

// treeSum adds each half of xs, then the two sums. Shares that are
// themselves subtrees of one larger tree — statevec.ProbOne over the
// windows tiling a register — thus reduce to the same bits at every
// power-of-two fleet size, which a rank-order sum does not.
func treeSum(xs []float64) float64 {
	if len(xs) == 1 {
		return xs[0]
	}
	h := len(xs) / 2
	return treeSum(xs[:h]) + treeSum(xs[h:])
}

// AllReduceMax returns the maximum of v over all PEs.
func (pe *PE) AllReduceMax(v float64) float64 {
	c := pe.comm
	buf := c.scratchF[pe.collSeq&1]
	pe.collSeq++
	pe.comm.pes[pe.Rank].stats.Collectives++
	buf[pe.Rank] = v
	pe.Barrier()
	m := buf[0]
	for _, x := range buf[1:] {
		if x > m {
			m = x
		}
	}
	pe.Barrier()
	return m
}

// BroadcastU64 distributes v from the root PE to every PE.
func (pe *PE) BroadcastU64(root int, v uint64) uint64 {
	c := pe.comm
	buf := c.scratchU[pe.collSeq&1]
	pe.collSeq++
	pe.comm.pes[pe.Rank].stats.Collectives++
	if pe.Rank == root {
		buf[root] = v
	}
	pe.Barrier()
	out := buf[root]
	pe.Barrier()
	return out
}

// BroadcastF64 distributes v from the root PE to every PE.
func (pe *PE) BroadcastF64(root int, v float64) float64 {
	c := pe.comm
	buf := c.scratchF[pe.collSeq&1]
	pe.collSeq++
	pe.comm.pes[pe.Rank].stats.Collectives++
	if pe.Rank == root {
		buf[root] = v
	}
	pe.Barrier()
	out := buf[root]
	pe.Barrier()
	return out
}
