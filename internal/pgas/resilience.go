package pgas

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"svsim/internal/fault"
	"svsim/internal/obs"
)

// Resilience layer: fault-injection hooks, one-sided retry with
// exponential backoff + jitter, barrier deadlines with stalled-rank
// attribution, and fleet-wide abort propagation so that a failed PE
// never leaves the other goroutines hung on a barrier.
//
// Everything here is off (and free beyond a nil check) unless the host
// attaches an Injector or Timeouts before entering the SPMD region.

// Timeouts configures deadlines and retry budgets for an SPMD region.
// The zero value disables all of them (wait forever, never retry).
type Timeouts struct {
	// Barrier is the maximum wait at a barrier before the waiter fails
	// with a BarrierTimeoutError naming the stalled ranks. 0 waits
	// forever.
	Barrier time.Duration
	// OpRetries is the retry budget for a transiently failing one-sided
	// op; when exhausted the PE fails with an OpTimeoutError.
	OpRetries int
	// BackoffBase is the first retry's backoff; it doubles per retry up
	// to BackoffMax. Zero values default to 100µs and 10ms.
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

func (t Timeouts) backoff(attempt int, jitter float64) time.Duration {
	base := t.BackoffBase
	if base <= 0 {
		base = 100 * time.Microsecond
	}
	max := t.BackoffMax
	if max <= 0 {
		max = 10 * time.Millisecond
	}
	d := base << uint(attempt-1)
	if d > max || d <= 0 {
		d = max
	}
	// Full jitter in [0.5, 1.5): desynchronizes retry storms without
	// ever collapsing the backoff to zero.
	return time.Duration(float64(d) * (0.5 + jitter))
}

// SetFault attaches a fault injector consulted on every one-sided op
// and barrier from then on; nil detaches. Call before entering an SPMD
// region.
func (c *Comm) SetFault(in *fault.Injector) { c.inj = in }

// SetTimeouts configures deadlines and retry budgets. Call before
// entering an SPMD region.
func (c *Comm) SetTimeouts(t Timeouts) { c.tmo = t }

// SetRecorder attaches a flight recorder that receives structured
// events for injected faults, retries, barrier timeouts, and PE
// failures; nil detaches. Call before entering an SPMD region.
func (c *Comm) SetRecorder(r *obs.FlightRecorder) { c.rec = r }

// BarrierTimeoutError reports a barrier whose deadline expired, naming
// the ranks that had not arrived.
type BarrierTimeoutError struct {
	Rank     int   // the waiter that timed out
	Stalled  []int // ranks that never arrived at the barrier
	Deadline time.Duration
}

func (e *BarrierTimeoutError) Error() string {
	parts := make([]string, len(e.Stalled))
	for i, r := range e.Stalled {
		parts[i] = fmt.Sprintf("%d", r)
	}
	return fmt.Sprintf("pgas: PE %d: barrier timed out after %v waiting for rank(s) %s",
		e.Rank, e.Deadline, strings.Join(parts, ","))
}

// OpTimeoutError reports a one-sided operation whose retry budget was
// exhausted without a successful completion.
type OpTimeoutError struct {
	Rank     int
	Op       fault.Op
	Attempts int
}

func (e *OpTimeoutError) Error() string {
	return fmt.Sprintf("pgas: PE %d: one-sided %s failed after %d attempt(s)", e.Rank, e.Op, e.Attempts)
}

// AbortError unwinds a PE whose fleet has already failed elsewhere.
type AbortError struct {
	Rank  int
	Cause error
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("pgas: PE %d: aborted: peer failure: %v", e.Rank, e.Cause)
}

// Unwrap exposes the root failure for errors.As chains.
func (e *AbortError) Unwrap() error { return e.Cause }

// PEFailure is one PE's terminal error within a failed SPMD region.
type PEFailure struct {
	Rank int
	Err  error
}

// RunError aggregates the failures of an SPMD region. Secondary
// AbortError unwinds are ordered after root causes.
type RunError struct {
	Failures []PEFailure
}

func (e *RunError) Error() string {
	parts := make([]string, 0, len(e.Failures))
	for _, f := range e.Failures {
		parts = append(parts, f.Err.Error())
	}
	return fmt.Sprintf("pgas: run failed on %d PE(s): %s", len(e.Failures), strings.Join(parts, "; "))
}

// Unwrap exposes the root cause (the first non-abort failure).
func (e *RunError) Unwrap() error {
	if len(e.Failures) == 0 {
		return nil
	}
	return e.Failures[0].Err
}

// abortPanic unwinds a PE goroutine through the SPMD call stack; only
// RunChecked's recover handles it.
type abortPanic struct{ err error }

// fail records err as the fleet-wide abort cause (first writer wins),
// wakes every barrier waiter, and unwinds the calling PE.
func (pe *PE) fail(err error) {
	// Secondary aborts (peers unwinding after someone else's failure) are
	// not recorded: one root cause should leave one trail, not P of them.
	switch err.(type) {
	case *AbortError:
	case *BarrierTimeoutError:
		pe.comm.rec.Record(pe.Rank, obs.EventBarrierTimeout, err.Error(), 0)
	default:
		pe.comm.rec.Record(pe.Rank, obs.EventPEFailure, err.Error(), 0)
	}
	pe.comm.abortAll(err)
	panic(abortPanic{err})
}

// Fail aborts the SPMD region with err: the calling PE unwinds
// immediately, peers are released at their next barrier, and RunChecked
// reports err as a root cause. For hosts whose SPMD bodies hit terminal
// conditions of their own (e.g. a checkpoint write error).
func (pe *PE) Fail(err error) { pe.fail(err) }

// Aborted is closed at the fleet's first PE failure. Blocking primitives
// layered over the communicator (the mpi backend's two-sided send and
// recv, core/mpicomm.go) select on it beside their own wait and then
// call Unwind, so a dead partner never hangs them.
func (pe *PE) Aborted() <-chan struct{} { return pe.comm.abortCh }

// Unwind unwinds the calling PE as a peer of the failure that closed
// Aborted, exactly as a barrier released by the abort latch would.
func (pe *PE) Unwind() {
	pe.fail(&AbortError{Rank: pe.Rank, Cause: pe.comm.abortErr})
}

// jitter returns a deterministic per-PE uniform value in [0, 1).
func (pe *PE) jitter() float64 {
	if pe.jrng == nil {
		pe.jrng = rand.New(rand.NewSource(int64(pe.Rank)*0x5851f42d + 1))
	}
	return pe.jrng.Float64()
}

// injectOneSided consults the injector for a one-sided op of n elements
// and drives the retry/backoff loop. It returns the final verdict whose
// corruption fields (if any) the caller applies to the landed payload.
// Called only when an injector is attached.
func (pe *PE) injectOneSided(op fault.Op, n int) fault.Verdict {
	c := pe.comm
	attempts := 0
	for {
		v := c.inj.OneSided(pe.Rank, op, n)
		if v.Delay > 0 {
			time.Sleep(v.Delay)
		}
		if v.Kill != nil {
			c.rec.Record(pe.Rank, obs.EventFaultInjected,
				fmt.Sprintf("%s kill: %v", op, v.Kill), 0)
			pe.fail(v.Kill)
		}
		if !v.Fail {
			if v.Corrupt {
				c.rec.Record(pe.Rank, obs.EventFaultInjected,
					fmt.Sprintf("%s corrupt elem=%d bit=%d", op, v.CorruptElem, v.CorruptBit), 0)
			}
			return v
		}
		attempts++
		if attempts > c.tmo.OpRetries {
			pe.fail(&OpTimeoutError{Rank: pe.Rank, Op: op, Attempts: attempts})
		}
		pe.comm.pes[pe.Rank].stats.Retries++
		c.rec.Record(pe.Rank, obs.EventRetry, op.String(), int64(attempts))
		time.Sleep(c.tmo.backoff(attempts, pe.jitter()))
	}
}

// corrupt applies a verdict's bit flip to the landed payload.
func corrupt(v fault.Verdict, buf []float64) {
	if !v.Corrupt || len(buf) == 0 {
		return
	}
	i := v.CorruptElem % len(buf)
	buf[i] = flipBit(buf[i], v.CorruptBit)
}

func flipBit(x float64, bit uint8) float64 {
	return math.Float64frombits(math.Float64bits(x) ^ 1<<uint(bit%64))
}

// RunChecked executes fn on every PE concurrently, like Run, but
// recovers failed PEs (injected kills, exhausted retries, barrier
// timeouts, peer-failure aborts) and returns a RunError aggregating
// them; nil when every PE completed. The fleet is guaranteed to
// terminate: the first failure aborts every barrier, so no goroutine is
// left hung.
func (c *Comm) RunChecked(fn func(pe *PE)) error {
	errs := make([]error, c.P)
	var wg sync.WaitGroup
	wg.Add(c.P)
	for r := 0; r < c.P; r++ {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					ap, ok := rec.(abortPanic)
					if !ok {
						// A genuine bug: re-panic after aborting the
						// fleet so the others do not hang while the
						// process dies.
						c.abortAll(fmt.Errorf("pgas: PE %d panicked: %v", rank, rec))
						panic(rec)
					}
					errs[rank] = ap.err
				}
			}()
			fn(&PE{Rank: rank, comm: c})
		}(r)
	}
	wg.Wait()
	var root, aborted []PEFailure
	for r, err := range errs {
		if err == nil {
			continue
		}
		if _, isAbort := err.(*AbortError); isAbort {
			aborted = append(aborted, PEFailure{Rank: r, Err: err})
		} else {
			root = append(root, PEFailure{Rank: r, Err: err})
		}
	}
	if len(root)+len(aborted) == 0 {
		return nil
	}
	return &RunError{Failures: append(root, aborted...)}
}

// stalledRanks lists, under the barrier lock, the ranks that have not
// arrived at the current generation.
func (b *barrier) stalledRanks() []int {
	var out []int
	for r, ok := range b.arrived {
		if !ok {
			out = append(out, r)
		}
	}
	sort.Ints(out)
	return out
}

func (b *barrier) setAbort(err error) {
	b.mu.Lock()
	if b.abort == nil {
		b.abort = err
	}
	b.cond.Broadcast()
	b.mu.Unlock()
}
