package pgas

import (
	"errors"
	"testing"
	"time"

	"svsim/internal/fault"
)

// TestBarrierStallTypedTimeout injects a barrier stall on one rank and
// checks the acceptance criterion: the waiters surface a typed
// BarrierTimeoutError naming the stalled rank within the configured
// deadline, and no goroutine hangs (the test itself would trip go test's
// -timeout if one did).
func TestBarrierStallTypedTimeout(t *testing.T) {
	const p = 4
	const stalled = 2
	c := NewComm(p)
	in := fault.NewInjector(1)
	in.Arm(fault.Fault{Kind: fault.Stall, Rank: stalled, Op: fault.Barrier, After: 1, Delay: 500 * time.Millisecond})
	c.SetFault(in)
	c.SetTimeouts(Timeouts{Barrier: 30 * time.Millisecond})

	start := time.Now()
	var unwound [p]time.Duration // each goroutine writes only its own slot
	err := c.RunChecked(func(pe *PE) {
		defer func() {
			if r := recover(); r != nil {
				unwound[pe.Rank] = time.Since(start)
				panic(r)
			}
		}()
		pe.Barrier()
	})
	if err == nil {
		t.Fatal("stalled barrier completed without error")
	}
	var bte *BarrierTimeoutError
	if !errors.As(err, &bte) {
		t.Fatalf("error %v (%T) does not wrap BarrierTimeoutError", err, err)
	}
	if len(bte.Stalled) != 1 || bte.Stalled[0] != stalled {
		t.Fatalf("timeout blames ranks %v, want [%d]", bte.Stalled, stalled)
	}
	// Every waiter must surface its error close to the 30ms deadline —
	// long before the injected 500ms stall releases the sleeper. (The
	// sleeper itself only unwinds once its sleep ends; RunChecked joins
	// it, so total wall time is ~500ms, but no waiter hangs.)
	for r, d := range unwound {
		if r == stalled {
			continue
		}
		if d >= 400*time.Millisecond {
			t.Fatalf("rank %d took %v to unwind, deadline was 30ms", r, d)
		}
	}
	var re *RunError
	if !errors.As(err, &re) || len(re.Failures) == 0 {
		t.Fatalf("error %v is not a RunError with failures", err)
	}
}

// TestKillAtBarrierAbortsFleet kills one PE at its second barrier; every
// other PE must unwind (no hang) and the RunError must expose the
// KillError as root cause.
func TestKillAtBarrierAbortsFleet(t *testing.T) {
	const p = 4
	c := NewComm(p)
	in := fault.NewInjector(1)
	in.Arm(fault.Fault{Kind: fault.Kill, Rank: 1, Op: fault.Barrier, After: 2})
	c.SetFault(in)

	err := c.RunChecked(func(pe *PE) {
		pe.Barrier()
		pe.Barrier()
		pe.Barrier()
	})
	if err == nil {
		t.Fatal("killed fleet reported success")
	}
	var ke *fault.KillError
	if !errors.As(err, &ke) || ke.Rank != 1 {
		t.Fatalf("error %v does not unwrap to KillError{Rank:1}", err)
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("error %v is not a RunError", err)
	}
	if len(re.Failures) != p {
		t.Fatalf("got %d PE failures, want all %d (kill + aborts)", len(re.Failures), p)
	}
	// Root cause ordering: the killed PE's failure comes first.
	if re.Failures[0].Rank != 1 {
		t.Fatalf("first failure is rank %d, want the killed rank 1", re.Failures[0].Rank)
	}
}

// TestDropRetriesThenSucceeds drops two consecutive put completions; with
// a retry budget the op must eventually land, the value must be correct,
// and Stats.Retries must count the re-issues.
func TestDropRetriesThenSucceeds(t *testing.T) {
	c := NewComm(2)
	in := fault.NewInjector(1)
	in.Arm(fault.Fault{Kind: fault.Drop, Rank: 0, Op: fault.Put, After: 1, Count: 2})
	c.SetFault(in)
	c.SetTimeouts(Timeouts{
		OpRetries:   5,
		BackoffBase: time.Microsecond,
		BackoffMax:  10 * time.Microsecond,
	})
	s := c.NewSymF64(4)
	err := c.RunChecked(func(pe *PE) {
		if pe.Rank == 0 {
			pe.Put(s, 1, 0, 42)
		}
		pe.Barrier()
	})
	if err != nil {
		t.Fatalf("run with retry budget failed: %v", err)
	}
	if got := s.PartitionUnsafe(1)[0]; got != 42 {
		t.Fatalf("put landed %v, want 42", got)
	}
	if got := c.StatsOf(0).Retries; got != 2 {
		t.Fatalf("rank 0 retries = %d, want 2", got)
	}
}

// TestDropExhaustsRetryBudget drops more completions than the budget
// allows; the PE must fail with a typed OpTimeoutError and the fleet must
// unwind.
func TestDropExhaustsRetryBudget(t *testing.T) {
	c := NewComm(2)
	in := fault.NewInjector(1)
	in.Arm(fault.Fault{Kind: fault.Drop, Rank: 0, Op: fault.Get, After: 1, Count: 100})
	c.SetFault(in)
	c.SetTimeouts(Timeouts{
		OpRetries:   3,
		BackoffBase: time.Microsecond,
		BackoffMax:  10 * time.Microsecond,
	})
	s := c.NewSymF64(4)
	err := c.RunChecked(func(pe *PE) {
		if pe.Rank == 0 {
			pe.Get(s, 1, 0)
		}
		pe.Barrier()
	})
	var ote *OpTimeoutError
	if !errors.As(err, &ote) {
		t.Fatalf("error %v does not unwrap to OpTimeoutError", err)
	}
	if ote.Rank != 0 || ote.Op != fault.Get || ote.Attempts != 4 {
		t.Fatalf("OpTimeoutError = %+v, want rank 0, get, 4 attempts", ote)
	}
}

// TestCorruptionLandsOnTransferOnly corrupts one put: exactly one element
// of the landed payload differs by one bit, and the caller's source
// buffer is untouched.
func TestCorruptionLandsOnTransferOnly(t *testing.T) {
	c := NewComm(2)
	in := fault.NewInjector(7)
	in.Arm(fault.Fault{Kind: fault.Corrupt, Rank: 0, Op: fault.Put, After: 1})
	c.SetFault(in)
	s := c.NewSymF64(8)
	src := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	orig := append([]float64(nil), src...)
	err := c.RunChecked(func(pe *PE) {
		if pe.Rank == 0 {
			pe.PutV(s, 1, 0, src)
		}
		pe.Barrier()
	})
	if err != nil {
		t.Fatalf("corrupting run failed: %v", err)
	}
	for i := range src {
		if src[i] != orig[i] {
			t.Fatalf("caller's source buffer mutated at %d", i)
		}
	}
	diff := 0
	for i, v := range s.PartitionUnsafe(1) {
		if v != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d elements corrupted, want exactly 1", diff)
	}
}

// TestDelayInjection delays one get; the run still completes correctly
// and takes at least the injected latency.
func TestDelayInjection(t *testing.T) {
	c := NewComm(2)
	in := fault.NewInjector(1)
	in.Arm(fault.Fault{Kind: fault.Delay, Rank: 1, Op: fault.Get, After: 1, Count: 1, Delay: 20 * time.Millisecond})
	c.SetFault(in)
	s := c.NewSymF64(1)
	s.PartitionUnsafe(0)[0] = 9
	start := time.Now()
	var got float64
	err := c.RunChecked(func(pe *PE) {
		if pe.Rank == 1 {
			got = pe.Get(s, 0, 0)
		}
		pe.Barrier()
	})
	if err != nil {
		t.Fatalf("delayed run failed: %v", err)
	}
	if got != 9 {
		t.Fatalf("delayed get returned %v, want 9", got)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("run finished before the injected delay elapsed")
	}
}

// TestRunCheckedNoFaultsIsClean verifies the resilience layer is inert
// when nothing is attached: RunChecked returns nil and stats carry no
// retries.
func TestRunCheckedNoFaultsIsClean(t *testing.T) {
	c := NewComm(4)
	s := c.NewSymF64(4)
	err := c.RunChecked(func(pe *PE) {
		pe.Put(s, (pe.Rank+1)%4, 0, float64(pe.Rank))
		pe.Barrier()
		_ = pe.Get(s, pe.Rank, 0)
		pe.Barrier()
	})
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	if got := c.TotalStats().Retries; got != 0 {
		t.Fatalf("clean run recorded %d retries", got)
	}
}

// TestKillMidRegionReleasesBarrierWaiters kills rank 0 on a one-sided op
// while the other ranks head to a barrier with a deadline; the abort (not
// the deadline) must release them promptly with AbortError.
func TestKillMidRegionReleasesBarrierWaiters(t *testing.T) {
	const p = 4
	c := NewComm(p)
	in := fault.NewInjector(1)
	in.Arm(fault.Fault{Kind: fault.Kill, Rank: 0, Op: fault.Put, After: 1})
	c.SetFault(in)
	c.SetTimeouts(Timeouts{Barrier: 5 * time.Second})
	s := c.NewSymF64(4)
	start := time.Now()
	err := c.RunChecked(func(pe *PE) {
		if pe.Rank == 0 {
			pe.Put(s, 1, 0, 1)
		}
		pe.Barrier()
	})
	if err == nil {
		t.Fatal("killed run reported success")
	}
	if time.Since(start) > time.Second {
		t.Fatal("waiters were released by the deadline, not the abort")
	}
	var ke *fault.KillError
	if !errors.As(err, &ke) || ke.Rank != 0 || ke.Op != fault.Put {
		t.Fatalf("root cause %v, want KillError{Rank:0, Op:put}", err)
	}
}

// TestBarrierTimeoutBlamesOnlyStalled: every waiter that times out on a
// barrier names the same stalled rank. A waiter retracts its arrival
// when it times out, and a later waiter must not blame it for that.
func TestBarrierTimeoutBlamesOnlyStalled(t *testing.T) {
	const p = 8
	const stalled = 5
	for trial := 0; trial < 5; trial++ {
		c := NewComm(p)
		in := fault.NewInjector(1)
		in.Arm(fault.Fault{Kind: fault.Stall, Rank: stalled, Op: fault.Barrier, After: 1, Delay: 200 * time.Millisecond})
		c.SetFault(in)
		c.SetTimeouts(Timeouts{Barrier: 20 * time.Millisecond})
		err := c.RunChecked(func(pe *PE) { pe.Barrier() })
		var re *RunError
		if !errors.As(err, &re) {
			t.Fatalf("trial %d: error %v is not a RunError", trial, err)
		}
		for _, f := range re.Failures {
			var bte *BarrierTimeoutError
			if errors.As(f.Err, &bte) && (len(bte.Stalled) != 1 || bte.Stalled[0] != stalled) {
				t.Fatalf("trial %d: rank %d blames ranks %v, want [%d]", trial, f.Rank, bte.Stalled, stalled)
			}
		}
	}
}

// TestRunOpsCorruptOneElement: with an injector attached a GetRun or
// PutRun is its element ops one by one, so corrupt:…:after=N flips
// exactly the N-th element of the run — on the value handed back for a
// get, on the landed value for a put — and nothing else.
func TestRunOpsCorruptOneElement(t *testing.T) {
	const after = 5
	for _, op := range []fault.Op{fault.Get, fault.Put} {
		c := NewComm(2)
		in := fault.NewInjector(7)
		in.Arm(fault.Fault{Kind: fault.Corrupt, Rank: 0, Op: op, After: after})
		c.SetFault(in)
		s := c.NewSymF64(8)
		for r := 0; r < 2; r++ {
			for i := range s.PartitionUnsafe(r) {
				s.PartitionUnsafe(r)[i] = float64(8*r + i + 1)
			}
		}
		src := []float64{-1, -2, -3, -4, -5, -6, -7}
		dst := make([]float64, len(src))
		err := c.RunChecked(func(pe *PE) {
			if pe.Rank == 0 {
				if op == fault.Get {
					pe.GetRun(s, 3, 2, dst) // elements 3, 5, …, 15: both partitions
				} else {
					pe.PutRun(s, 3, 2, src)
				}
			}
			pe.Barrier()
		})
		if err != nil {
			t.Fatalf("%s: corrupting run failed: %v", op, err)
		}
		for k := range src {
			g := 3 + 2*k
			landed, want := s.PartitionUnsafe(g / 8)[g%8], src[k]
			if op == fault.Get {
				landed, want = dst[k], float64(g+1)
			}
			if bad := landed != want; bad != (k == after-1) {
				t.Errorf("%s: element %d = %g, want %g (only element %d corrupted)", op, k, landed, want, after-1)
			}
		}
	}
}

// TestRunOpsDropRetriesThenLand drops two consecutive completions of an
// element inside a PutRun and of one inside a GetRun: each is re-issued
// within the retry budget, every element lands, and Stats count the four
// retries beside the ops a fault-free run counts.
func TestRunOpsDropRetriesThenLand(t *testing.T) {
	c := NewComm(2)
	in := fault.NewInjector(1)
	in.Arm(fault.Fault{Kind: fault.Drop, Rank: 0, Op: fault.Put, After: 3, Count: 2})
	in.Arm(fault.Fault{Kind: fault.Drop, Rank: 0, Op: fault.Get, After: 6, Count: 2})
	c.SetFault(in)
	c.SetTimeouts(Timeouts{OpRetries: 5, BackoffBase: time.Microsecond, BackoffMax: 10 * time.Microsecond})
	s := c.NewSymF64(4)
	src := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	dst := make([]float64, len(src))
	err := c.RunChecked(func(pe *PE) {
		if pe.Rank == 0 {
			pe.PutRun(s, 0, 1, src)
			pe.GetRun(s, 0, 1, dst)
		}
		pe.Barrier()
	})
	if err != nil {
		t.Fatalf("run with retry budget failed: %v", err)
	}
	for k, v := range src {
		if dst[k] != v || s.PartitionUnsafe(k / 4)[k%4] != v {
			t.Fatalf("element %d: landed %g, read back %g, want %g", k, s.PartitionUnsafe(k / 4)[k%4], dst[k], v)
		}
	}
	want := Stats{LocalGets: 4, LocalPuts: 4, RemoteGets: 4, RemotePuts: 4, LocalBytes: 64, RemoteBytes: 64, Barriers: 1, Retries: 4}
	if got := c.StatsOf(0); got != want {
		t.Fatalf("rank 0 stats = %+v, want %+v", got, want)
	}
}
