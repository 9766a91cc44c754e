package core

import (
	"fmt"

	"svsim/internal/obs"
	"svsim/internal/pgas"
)

// The two-sided communicator of the mpi backend: the traditional
// CPU-driven message-passing layer SV-Sim's PGAS design replaces (paper
// §2.1). It counts everything the paper charges the traditional approach
// for — message counts, packed bytes, pack/unpack passes, and the
// device-to-host staging traffic that CPU-managed MPI on a GPU cluster
// incurs ("data has to be migrated from the accelerators to the system
// memory for transportation") — so the comparison harness can price both
// designs from measured quantities.

// MPIStats counts two-sided communication work per rank or aggregated.
type MPIStats struct {
	Messages        int64 // point-to-point sends
	MsgBytes        int64 // payload bytes sent
	PackOps         int64 // pack or unpack passes over a buffer
	PackBytes       int64 // bytes moved by packing/unpacking
	HostStagedBytes int64 // modeled device<->host staging volume
	Reductions      int64 // collective reduction/broadcast operations
	Syncs           int64 // full-communicator synchronizations
}

// Add merges o into s.
func (s *MPIStats) Add(o MPIStats) {
	s.Messages += o.Messages
	s.MsgBytes += o.MsgBytes
	s.PackOps += o.PackOps
	s.PackBytes += o.PackBytes
	s.HostStagedBytes += o.HostStagedBytes
	s.Reductions += o.Reductions
	s.Syncs += o.Syncs
}

// String renders the counters as svsim's "mpi" report line.
func (s MPIStats) String() string {
	return fmt.Sprintf("msgs=%d bytes=%d packs=%d packBytes=%d staged=%d reductions=%d syncs=%d",
		s.Messages, s.MsgBytes, s.PackOps, s.PackBytes, s.HostStagedBytes, s.Reductions, s.Syncs)
}

type msgRank struct {
	stats MPIStats
	_     [64]byte
}

// msgComm adds two-sided messaging to an SPMD fleet: one buffered channel
// per (src, dst) pair as the wire, and the per-rank counters. Goroutine
// launch, barriers, reductions, fault injection and abort propagation are
// the fleet's (pgas.Comm); a rank is the fleet's *pgas.PE.
type msgComm struct {
	fleet *pgas.Comm
	chans [][]chan []float64
	ranks []msgRank

	msgBytes *obs.Histogram // nil when no registry is attached
}

// newMsgComm layers a message-passing communicator over fleet; with a
// registry attached it records message payload sizes as a histogram.
func newMsgComm(fleet *pgas.Comm, m *obs.Metrics) *msgComm {
	p := fleet.P
	c := &msgComm{fleet: fleet, chans: make([][]chan []float64, p), ranks: make([]msgRank, p)}
	for s := range c.chans {
		c.chans[s] = make([]chan []float64, p)
		for d := range c.chans[s] {
			// Capacity covers eager sends so symmetric SendRecv pairs
			// cannot deadlock.
			c.chans[s][d] = make(chan []float64, 4)
		}
	}
	if m != nil {
		c.msgBytes = m.Histogram(obs.MetricMsgBytes, obs.SizeBuckets())
	}
	return c
}

// statsOf returns the counters of a single rank. Safe to call from that
// rank's own goroutine mid-run (used for per-gate span attribution).
func (c *msgComm) statsOf(rank int) MPIStats {
	st := c.ranks[rank].stats
	f := c.fleet.StatsOf(rank)
	st.Reductions, st.Syncs = f.Collectives, f.Barriers
	return st
}

// totalStats aggregates all rank counters; reductions and syncs are the
// fleet's collective and barrier counts.
func (c *msgComm) totalStats() MPIStats {
	var t MPIStats
	for r := range c.ranks {
		t.Add(c.statsOf(r))
	}
	return t
}

// send transmits buf from pe to dst (two-sided, matched by recv). The
// payload is counted as one message; callers must not reuse buf until
// the receiver is known to be done (the transport always sends freshly
// packed buffers or snapshots it re-packs only after a grid sync).
func (c *msgComm) send(pe *pgas.PE, dst int, buf []float64) {
	st := &c.ranks[pe.Rank].stats
	st.Messages++
	st.MsgBytes += int64(len(buf)) * 8
	if h := c.msgBytes; h != nil {
		h.Observe(float64(len(buf)) * 8)
	}
	select {
	case c.chans[pe.Rank][dst] <- buf:
	case <-pe.Aborted():
		pe.Unwind()
	}
}

// recv blocks for the next message from src, or unwinds pe if the fleet
// fails while it waits (so a dead partner never hangs the receiver).
func (c *msgComm) recv(pe *pgas.PE, src int) []float64 {
	select {
	case buf := <-c.chans[src][pe.Rank]:
		return buf
	case <-pe.Aborted():
		pe.Unwind()
		return nil
	}
}

// sendRecv exchanges buffers with a partner rank (the classic pairwise
// exchange of distributed state-vector simulators).
func (c *msgComm) sendRecv(pe *pgas.PE, peer int, send []float64) []float64 {
	c.send(pe, peer, send)
	return c.recv(pe, peer)
}

// notePack charges one pack/unpack pass of n bytes plus the modeled
// device<->host staging cost on accelerator platforms.
func (c *msgComm) notePack(rank int, bytes int64) {
	st := &c.ranks[rank].stats
	st.PackOps++
	st.PackBytes += bytes
	st.HostStagedBytes += bytes
}
