package pgas

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"svsim/internal/fault"
)

// TestGroupBarrierSynchronizes runs two disjoint sub-groups through
// independent phase counters: after each group barrier, all increments
// from that group's previous phase must be visible, while the other
// group runs completely unsynchronized with it.
func TestGroupBarrierSynchronizes(t *testing.T) {
	const p = 8
	const phases = 200
	c := NewComm(p)
	lo := c.Group([]int{0, 1, 2, 3})
	hi := c.Group([]int{4, 5, 6, 7})
	var counters [2]int64
	c.Run(func(pe *PE) {
		grp, half := lo, 0
		if pe.Rank >= 4 {
			grp, half = hi, 1
		}
		for ph := 0; ph < phases; ph++ {
			atomic.AddInt64(&counters[half], 1)
			grp.Barrier(pe)
			if got := atomic.LoadInt64(&counters[half]); got < int64((ph+1)*4) {
				t.Errorf("PE %d phase %d: counter = %d, want >= %d", pe.Rank, ph, got, (ph+1)*4)
				return
			}
			grp.Barrier(pe)
		}
	})
	for half, want := range counters {
		if want != phases*4 {
			t.Fatalf("group %d counter = %d, want %d", half, want, phases*4)
		}
	}
}

// TestGroupBarrierTimeoutFleetRanks stalls one member of a sub-group
// past the barrier deadline: the other member's timeout must name the
// stalled PE by its FLEET rank, not its slot within the group.
func TestGroupBarrierTimeoutFleetRanks(t *testing.T) {
	const p = 4
	const stalled = 3 // group slot 1
	c := NewComm(p)
	in := fault.NewInjector(1)
	in.Arm(fault.Fault{Kind: fault.Stall, Rank: stalled, Op: fault.Barrier, After: 1, Delay: 500 * time.Millisecond})
	c.SetFault(in)
	c.SetTimeouts(Timeouts{Barrier: 30 * time.Millisecond})
	grp := c.Group([]int{2, 3})
	err := c.RunChecked(func(pe *PE) {
		if pe.Rank >= 2 {
			grp.Barrier(pe)
		}
	})
	if err == nil {
		t.Fatal("stalled group barrier completed without error")
	}
	var bte *BarrierTimeoutError
	if !errors.As(err, &bte) {
		t.Fatalf("error %v (%T) does not wrap BarrierTimeoutError", err, err)
	}
	if len(bte.Stalled) != 1 || bte.Stalled[0] != stalled {
		t.Fatalf("timeout blames ranks %v, want fleet rank [%d]", bte.Stalled, stalled)
	}
}

// TestGroupBarrierReleasedByFleetAbort kills a PE that is NOT a member
// of the waiting group: the fleet abort must release the sub-group's
// waiters (they could never complete — one member never arrives), so a
// dead PE anywhere cannot leave a sub-group hung.
func TestGroupBarrierReleasedByFleetAbort(t *testing.T) {
	const p = 4
	c := NewComm(p)
	in := fault.NewInjector(1)
	in.Arm(fault.Fault{Kind: fault.Kill, Rank: 2, Op: fault.Barrier, After: 1})
	c.SetFault(in)
	grp := c.Group([]int{0, 1, 2})
	err := c.RunChecked(func(pe *PE) {
		if pe.Rank == 2 {
			pe.Barrier() // killed here; never reaches the group barrier
		}
		if pe.Rank < 2 {
			grp.Barrier(pe) // would hang without the fleet abort
		}
	})
	if err == nil {
		t.Fatal("fleet with killed PE reported success")
	}
	var ke *fault.KillError
	if !errors.As(err, &ke) {
		t.Fatalf("error %v does not expose the kill as root cause", err)
	}
}

// TestGroupValidation covers the construction contract.
func TestGroupValidation(t *testing.T) {
	c := NewComm(4)
	for _, bad := range [][]int{{}, {0, 4}, {-1}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("group over %v did not panic", bad)
				}
			}()
			c.Group(bad)
		}()
	}
	g := c.Group([]int{1, 3})
	if g.Size() != 2 {
		t.Fatalf("size %d, want 2", g.Size())
	}
	if r := g.Ranks(); len(r) != 2 || r[0] != 1 || r[1] != 3 {
		t.Fatalf("ranks %v, want [1 3]", r)
	}
	c.Run(func(pe *PE) {
		if pe.Rank == 0 {
			defer func() {
				if recover() == nil {
					t.Error("non-member Barrier did not panic")
				}
			}()
			g.Barrier(pe)
		}
	})
}
