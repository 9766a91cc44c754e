package fault

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestKillFiresOnExactEvent(t *testing.T) {
	in := NewInjector(1)
	in.Arm(Fault{Kind: Kill, Rank: 2, Op: Barrier, After: 3})
	for i := 1; i <= 2; i++ {
		if v := in.BarrierEvent(2); v.Kill != nil {
			t.Fatalf("barrier #%d of rank 2 killed early", i)
		}
	}
	// Other ranks' counters are independent.
	if v := in.BarrierEvent(1); v.Kill != nil {
		t.Fatal("rank 1 killed by rank 2's fault")
	}
	v := in.BarrierEvent(2)
	if v.Kill == nil {
		t.Fatal("barrier #3 of rank 2 not killed")
	}
	var ke *KillError
	if !errors.As(v.Kill, &ke) || ke.Rank != 2 || ke.N != 3 {
		t.Fatalf("kill error = %v, want KillError{Rank:2, N:3}", v.Kill)
	}
	// The trigger point is exact: event #4 proceeds normally.
	if v := in.BarrierEvent(2); v.Kill != nil {
		t.Fatal("kill re-fired after its trigger point")
	}
}

func TestDropAffectsCountConsecutiveEvents(t *testing.T) {
	in := NewInjector(1)
	in.Arm(Fault{Kind: Drop, Rank: 0, Op: Get, After: 2, Count: 3})
	var fails []int64
	for i := int64(1); i <= 6; i++ {
		if v := in.OneSided(0, Get, 8); v.Fail {
			fails = append(fails, i)
		}
	}
	if len(fails) != 3 || fails[0] != 2 || fails[2] != 4 {
		t.Fatalf("drops fired on events %v, want [2 3 4]", fails)
	}
	// Puts are a different class and never fail.
	if v := in.OneSided(0, Put, 8); v.Fail {
		t.Fatal("drop on get class affected a put")
	}
}

func TestCorruptIsDeterministicPerSeed(t *testing.T) {
	pick := func(seed int64) (int, uint8) {
		in := NewInjector(seed)
		in.Arm(Fault{Kind: Corrupt, Rank: 1, Op: Put, After: 1})
		v := in.OneSided(1, Put, 1024)
		if !v.Corrupt {
			t.Fatal("corruption did not fire")
		}
		return v.CorruptElem, v.CorruptBit
	}
	e1, b1 := pick(7)
	e2, b2 := pick(7)
	if e1 != e2 || b1 != b2 {
		t.Fatalf("same seed picked different corruption: (%d,%d) vs (%d,%d)", e1, b1, e2, b2)
	}
	if e1 >= 1024 {
		t.Fatalf("corrupt element %d out of transfer range", e1)
	}
}

func TestDelayAndAnyOp(t *testing.T) {
	in := NewInjector(1)
	in.Arm(Fault{Kind: Delay, Rank: 3, Op: AnyOp, After: 1, Count: 2, Delay: 5 * time.Millisecond})
	if v := in.OneSided(3, Get, 1); v.Delay != 5*time.Millisecond {
		t.Fatalf("first event delay %v", v.Delay)
	}
	if v := in.OneSided(3, Put, 1); v.Delay != 5*time.Millisecond {
		t.Fatalf("second event (different class, AnyOp fault) delay %v", v.Delay)
	}
	// Counters are per (rank, class): this is the get class's second
	// event, still inside the After=1 Count=2 window.
	if v := in.OneSided(3, Get, 1); v.Delay != 5*time.Millisecond {
		t.Fatalf("second get delay %v", v.Delay)
	}
	if v := in.OneSided(3, Get, 1); v.Delay != 0 {
		t.Fatal("delay outlived its count window")
	}
}

// TestFiredAccounting: a stall armed at the first barrier delays that
// barrier and no later one.
func TestFiredAccounting(t *testing.T) {
	in := NewInjector(1)
	in.Arm(Fault{Kind: Stall, Rank: 0, Op: Barrier, After: 1, Delay: time.Millisecond})
	if v := in.BarrierEvent(0); v.Delay != time.Millisecond {
		t.Fatalf("first barrier delay %v, want 1ms", v.Delay)
	}
	if v := in.BarrierEvent(0); v.Delay != 0 {
		t.Fatalf("stall fired twice: second barrier delay %v", v.Delay)
	}
}

func TestParseSpec(t *testing.T) {
	in, err := ParseSpec("kill:rank=1:op=barrier:after=3; drop:rank=0:op=get:after=10:count=5", 1)
	if err != nil {
		t.Fatal(err)
	}
	fs := in.Faults()
	if len(fs) != 2 {
		t.Fatalf("parsed %d faults, want 2", len(fs))
	}
	if fs[0].Kind != Kill || fs[0].Rank != 1 || fs[0].Op != Barrier || fs[0].After != 3 {
		t.Fatalf("fault 0 = %+v", fs[0])
	}
	if fs[1].Kind != Drop || fs[1].Count != 5 || fs[1].After != 10 {
		t.Fatalf("fault 1 = %+v", fs[1])
	}

	bad := []struct{ spec, want string }{
		{"", "empty spec"},
		{"explode:rank=1", "unknown kind"},
		{"kill:op=get", "needs rank"},
		{"kill:rank=-2", "bad rank"},
		{"kill:rank=1:after=0", "bad after"},
		{"delay:rank=1", "needs dur"},
		{"stall:rank=1:op=get:dur=1ms", "stall applies to op=barrier"},
		{"kill:rank=1:color=red", "unknown field"},
		{"kill:rank=1:op", "malformed field"},
		{"delay:rank=1:dur=fast", "bad dur"},
	}
	for _, c := range bad {
		if _, err := ParseSpec(c.spec, 1); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseSpec(%q) error = %v, want mention of %q", c.spec, err, c.want)
		}
	}
}
