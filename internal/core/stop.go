package core

import (
	"errors"
	"sync/atomic"

	"svsim/internal/pgas"
)

// Graceful shutdown: a signal handler (or any controller) triggers a
// StopLatch; the step loop observes it at its cut points (runtime.go,
// cutPoint), writes one final checkpoint there when checkpointing is
// configured, and unwinds with ErrInterrupted so the caller can flush
// observability sinks and exit cleanly instead of losing the run's
// progress to a SIGTERM.

// ErrInterrupted is the terminal error of a run stopped by a triggered
// StopLatch. The run's state is NOT complete, but when checkpointing
// was configured a final checkpoint was published first, so a -resume
// continues where the signal landed.
var ErrInterrupted = errors.New("core: run interrupted by shutdown request")

// StopLatch is a sticky one-way stop flag, safe for concurrent use.
// The nil latch never triggers.
type StopLatch struct {
	v atomic.Bool
}

// Trigger requests a graceful stop; idempotent.
func (s *StopLatch) Trigger() { s.v.Store(true) }

// Triggered reports whether a stop was requested.
func (s *StopLatch) Triggered() bool { return s != nil && s.v.Load() }

// vote reaches fleet consensus on the latch inside an SPMD region: PEs
// race the signal handler, so individual reads may disagree; the
// all-reduce makes every PE act identically at the same cut point.
// Only called at sites every PE reaches together (checkpoint cuts), so
// the collective cannot mismatch.
func (s *StopLatch) vote(pe *pgas.PE) bool {
	if s == nil {
		return false
	}
	var v float64
	if s.Triggered() {
		v = 1
	}
	return pe.AllReduceSum(v) > 0
}
