package pgas

import (
	"fmt"
	"sync"
	"time"

	"svsim/internal/obs"
)

// Sub-communicator barriers: a Group is a barrier domain over a subset
// of ranks, which synchronizes only those ranks instead of stopping the
// whole fleet. No simulator path uses one; bench/perf's
// pgas.group_barrier_us probe measures it. Group barriers carry the full
// resilience contract of the global barrier: fault injection sees them
// as barrier events, deadlines fire with stalled-rank attribution in
// fleet rank numbers, and any PE failure anywhere aborts every group
// barrier along with the global one, so a dead PE never leaves a
// sub-group hung.

// Group is a barrier domain over a fixed subset of the communicator's
// ranks. Construct with Comm.Group before entering the SPMD region;
// Barrier may then be called concurrently by the member PEs.
type Group struct {
	comm  *Comm
	ranks []int       // members, in construction order
	slot  map[int]int // fleet rank -> barrier slot
	bar   *barrier
}

// Group creates a barrier domain over the given fleet ranks. Ranks must
// be distinct and in range; the calling PE set of every Barrier must be
// exactly this set. Safe to call before or between SPMD regions.
func (c *Comm) Group(ranks []int) *Group {
	if len(ranks) == 0 {
		panic("pgas: empty group")
	}
	g := &Group{
		comm:  c,
		ranks: append([]int(nil), ranks...),
		slot:  make(map[int]int, len(ranks)),
		bar:   newBarrier(len(ranks)),
	}
	for i, r := range ranks {
		if r < 0 || r >= c.P {
			panic(fmt.Sprintf("pgas: group rank %d outside communicator of %d PEs", r, c.P))
		}
		if _, dup := g.slot[r]; dup {
			panic(fmt.Sprintf("pgas: duplicate rank %d in group", r))
		}
		g.slot[r] = i
	}
	c.groupMu.Lock()
	c.groups = append(c.groups, g)
	c.groupMu.Unlock()
	return g
}

// Size returns the number of member ranks.
func (g *Group) Size() int { return len(g.ranks) }

// Ranks returns the member ranks in construction order.
func (g *Group) Ranks() []int { return append([]int(nil), g.ranks...) }

// Barrier synchronizes the group's member PEs; pe must be a member. It
// counts toward the PE's barrier statistics and observes the same fault
// injection, deadline, and fleet-abort semantics as the global Barrier:
// a timeout fails this PE naming the stalled fleet ranks, and a failure
// anywhere in the fleet releases and unwinds the waiters.
func (g *Group) Barrier(pe *PE) {
	slot, ok := g.slot[pe.Rank]
	if !ok {
		panic(fmt.Sprintf("pgas: PE %d is not a member of this group", pe.Rank))
	}
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
		err = g.bar.await(slot, pe.comm.tmo.Barrier)
		h.Observe(float64(time.Since(t0).Nanoseconds()))
	} else {
		err = g.bar.await(slot, pe.comm.tmo.Barrier)
	}
	if err != nil {
		pe.fail(g.renumber(err, pe.Rank))
	}
}

// renumber rewrites a group barrier error's slot-based rank fields into
// fleet rank numbers so failure reports stay meaningful.
func (g *Group) renumber(err error, rank int) error {
	switch e := err.(type) {
	case *BarrierTimeoutError:
		stalled := make([]int, len(e.Stalled))
		for i, s := range e.Stalled {
			stalled[i] = g.ranks[s]
		}
		return &BarrierTimeoutError{Rank: rank, Stalled: stalled, Deadline: e.Deadline}
	case *AbortError:
		return &AbortError{Rank: rank, Cause: e.Cause}
	}
	return err
}

// groupState is the communicator-side registry of group barriers, so a
// fleet abort can release sub-group waiters too.
type groupState struct {
	groupMu sync.Mutex
	groups  []*Group
}

// abortAll latches err onto the abort channel, the global barrier and
// every group barrier, waking all waiters; the first cause wins everywhere.
func (c *Comm) abortAll(err error) {
	c.abortOnce.Do(func() {
		c.abortErr = err
		close(c.abortCh)
	})
	c.bar.setAbort(err)
	c.groupMu.Lock()
	gs := append([]*Group(nil), c.groups...)
	c.groupMu.Unlock()
	for _, g := range gs {
		g.bar.setAbort(err)
	}
}
