// Package fault implements deterministic fault injection for the
// distributed runtimes. An Injector is armed with a set of faults, each
// keyed on a (rank, operation class, event count) trigger point, and is
// consulted by the communication substrate (internal/pgas, whose
// barriers are also the mpi backend's fault surface) on every matching
// event. With no injector attached the substrate pays a single nil
// check — the same nil-means-off pattern the observability hooks use.
//
// Determinism: triggers fire on exact per-rank event counts, never on
// wall-clock time or scheduler interleaving, so a given (circuit, seed,
// fault plan) always fails the same way. The only randomness — which bit
// of which element a corruption flips — comes from the injector's own
// seeded generator.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Op classifies the events an injector can intercept.
type Op uint8

const (
	// AnyOp matches every interceptable operation class.
	AnyOp Op = iota
	// Get is a one-sided load (scalar or coalesced vector).
	Get
	// Put is a one-sided store (scalar or coalesced vector).
	Put
	// Barrier is a full-communicator synchronization.
	Barrier

	numOps
)

func (o Op) String() string {
	switch o {
	case AnyOp:
		return "any"
	case Get:
		return "get"
	case Put:
		return "put"
	case Barrier:
		return "barrier"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// ParseOp parses an operation class name.
func ParseOp(s string) (Op, error) {
	switch s {
	case "any", "":
		return AnyOp, nil
	case "get":
		return Get, nil
	case "put":
		return Put, nil
	case "barrier":
		return Barrier, nil
	}
	return 0, fmt.Errorf("fault: unknown op %q (want any|get|put|barrier)", s)
}

// Kind discriminates fault behaviors.
type Kind uint8

const (
	// Kill fails the PE: the substrate unwinds it with a KillError and
	// aborts the fleet.
	Kill Kind = iota
	// Delay sleeps before completing the operation (a slow link or a
	// descheduled peer), then lets it succeed.
	Delay
	// Drop makes the operation's completion fail transiently: the
	// substrate retries with backoff, and succeeds once the fault's
	// Count is exhausted.
	Drop
	// Corrupt flips one bit of one in-flight element.
	Corrupt
	// Stall is Delay aimed at a barrier: the rank arrives late, which
	// is how barrier-deadline detection is exercised.
	Stall
)

func (k Kind) String() string {
	switch k {
	case Kill:
		return "kill"
	case Delay:
		return "delay"
	case Drop:
		return "drop"
	case Corrupt:
		return "corrupt"
	case Stall:
		return "stall"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Fault is one armed fault: Kind behavior at a trigger point. The fault
// fires on events number After..After+Count-1 (1-based) of class Op on
// rank Rank.
type Fault struct {
	Kind  Kind
	Rank  int
	Op    Op
	After int64         // first matching event (1-based) that fires
	Count int64         // consecutive events affected (default 1)
	Delay time.Duration // Delay/Stall sleep
}

func (f Fault) String() string {
	s := fmt.Sprintf("%s:rank=%d:op=%s:after=%d", f.Kind, f.Rank, f.Op, f.After)
	if f.Count > 1 {
		s += ":count=" + strconv.FormatInt(f.Count, 10)
	}
	if f.Delay > 0 {
		s += ":dur=" + f.Delay.String()
	}
	return s
}

// KillError is the typed error a killed PE dies with.
type KillError struct {
	Rank int
	Op   Op
	N    int64 // the event count at which the kill fired
}

func (e *KillError) Error() string {
	return fmt.Sprintf("fault: injected kill of PE %d at %s #%d", e.Rank, e.Op, e.N)
}

// Verdict is the injector's decision for one event. The zero Verdict
// means "proceed normally".
type Verdict struct {
	// Kill, when non-nil, orders the PE to die with this error.
	Kill error
	// Fail marks the operation's completion as transiently failed; the
	// substrate should retry with backoff.
	Fail bool
	// Delay is slept before the operation completes.
	Delay time.Duration
	// Corrupt orders a bit flip of element CorruptElem (taken modulo
	// the transfer length), bit CorruptBit, of the in-flight payload.
	Corrupt     bool
	CorruptElem int
	CorruptBit  uint8
}

// Injector holds armed faults and per-rank event counters. All methods
// are safe for concurrent use by the PE goroutines.
type Injector struct {
	mu     sync.Mutex
	seed   int64
	rng    splitmix
	faults []Fault
	counts map[countKey]int64
}

type countKey struct {
	rank int
	op   Op
}

// NewInjector creates an empty injector; seed drives only corruption
// randomness.
func NewInjector(seed int64) *Injector {
	return &Injector{
		seed:   seed,
		rng:    splitmix(uint64(seed) + 0x9e3779b97f4a7c15),
		counts: make(map[countKey]int64),
	}
}

// Arm adds a fault. Count defaults to 1; After defaults to 1.
func (in *Injector) Arm(f Fault) {
	if f.Count < 1 {
		f.Count = 1
	}
	if f.After < 1 {
		f.After = 1
	}
	in.mu.Lock()
	in.faults = append(in.faults, f)
	in.mu.Unlock()
}

// OneSided records a one-sided event of class op (Get or Put) on rank
// and returns the verdict. n is the element count of the transfer.
func (in *Injector) OneSided(rank int, op Op, n int) Verdict {
	return in.event(rank, op, n)
}

// BarrierEvent records a barrier arrival of rank and returns the verdict.
func (in *Injector) BarrierEvent(rank int) Verdict {
	return in.event(rank, Barrier, 0)
}

func (in *Injector) event(rank int, op Op, n int) Verdict {
	in.mu.Lock()
	defer in.mu.Unlock()
	k := countKey{rank, op}
	in.counts[k]++
	c := in.counts[k]
	var v Verdict
	for i := range in.faults {
		f := &in.faults[i]
		if f.Rank != rank || (f.Op != AnyOp && f.Op != op) {
			continue
		}
		if c < f.After || c >= f.After+f.Count {
			continue
		}
		switch f.Kind {
		case Kill:
			v.Kill = &KillError{Rank: rank, Op: op, N: c}
		case Delay, Stall:
			v.Delay += f.Delay
		case Drop:
			v.Fail = true
		case Corrupt:
			v.Corrupt = true
			if n > 0 {
				v.CorruptElem = int(in.rng.next() % uint64(n))
			}
			v.CorruptBit = uint8(in.rng.next() % 64)
		}
	}
	return v
}

// Faults returns the armed fault list, in arming order.
func (in *Injector) Faults() []Fault {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Fault(nil), in.faults...)
}

// String summarizes the armed plan (for logs and error reports).
func (in *Injector) String() string {
	fs := in.Faults()
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

// splitmix is splitmix64: a tiny deterministic generator so corruption
// choices do not depend on math/rand's global state.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ParseSpec parses a fault plan from a CLI spec: semicolon-separated
// faults, each "kind:key=val:key=val...". Keys: rank (required), op
// (default any; barrier required for stall), after (default 1), count
// (default 1), dur (Go duration; required for delay/stall).
//
//	kill:rank=1:op=barrier:after=3
//	drop:rank=0:op=get:after=10:count=5;corrupt:rank=2:op=put:after=7
func ParseSpec(spec string, seed int64) (*Injector, error) {
	in := NewInjector(seed)
	for _, one := range strings.Split(spec, ";") {
		one = strings.TrimSpace(one)
		if one == "" {
			continue
		}
		f, err := parseFault(one)
		if err != nil {
			return nil, err
		}
		in.Arm(f)
	}
	if len(in.Faults()) == 0 {
		return nil, fmt.Errorf("fault: empty spec %q", spec)
	}
	return in, nil
}

func parseFault(s string) (Fault, error) {
	fields := strings.Split(s, ":")
	var f Fault
	switch fields[0] {
	case "kill":
		f.Kind = Kill
	case "delay":
		f.Kind = Delay
	case "drop":
		f.Kind = Drop
	case "corrupt":
		f.Kind = Corrupt
	case "stall":
		f.Kind = Stall
	default:
		return f, fmt.Errorf("fault: unknown kind %q in %q (want kill|delay|drop|corrupt|stall)", fields[0], s)
	}
	f.Rank = -1
	for _, kv := range fields[1:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return f, fmt.Errorf("fault: malformed field %q in %q (want key=value)", kv, s)
		}
		switch key {
		case "rank":
			r, err := strconv.Atoi(val)
			if err != nil || r < 0 {
				return f, fmt.Errorf("fault: bad rank %q in %q", val, s)
			}
			f.Rank = r
		case "op":
			op, err := ParseOp(val)
			if err != nil {
				return f, err
			}
			f.Op = op
		case "after":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 1 {
				return f, fmt.Errorf("fault: bad after %q in %q (want >= 1)", val, s)
			}
			f.After = n
		case "count":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 1 {
				return f, fmt.Errorf("fault: bad count %q in %q (want >= 1)", val, s)
			}
			f.Count = n
		case "dur":
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return f, fmt.Errorf("fault: bad dur %q in %q (want a positive Go duration)", val, s)
			}
			f.Delay = d
		default:
			return f, fmt.Errorf("fault: unknown field %q in %q", key, s)
		}
	}
	if f.Rank < 0 {
		return f, fmt.Errorf("fault: %q needs rank=N", s)
	}
	if (f.Kind == Delay || f.Kind == Stall) && f.Delay <= 0 {
		return f, fmt.Errorf("fault: %q needs dur=D", s)
	}
	if f.Kind == Stall && f.Op != Barrier {
		return f, fmt.Errorf("fault: stall applies to op=barrier, got %q", f.Op)
	}
	return f, nil
}
