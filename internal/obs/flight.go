package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// FlightRecorder is a bounded ring buffer of structured runtime events —
// remaps, checkpoints, fault injections, retries, barrier timeouts,
// restarts — that survives in memory until a run ends or aborts, then is
// dumped as JSONL next to the failure report. It turns "the run
// recovered after 2 restarts" into an ordered record of exactly what
// happened on which PE at which instant.
//
// Like the rest of the package, nil means off: Record on a nil recorder
// is a no-op, so callers thread a possibly-nil *FlightRecorder without
// guards. Record is safe for concurrent use from PE goroutines.
type FlightRecorder struct {
	start time.Time

	mu   sync.Mutex
	buf  []FlightEvent
	next int   // ring write cursor
	full bool  // buffer has wrapped
	seq  int64 // monotone event sequence, survives wrapping
}

// FlightEvent is one recorded occurrence.
type FlightEvent struct {
	Seq    int64  `json:"seq"`              // global order, never reused
	TNS    int64  `json:"t_ns"`             // nanoseconds since recorder creation
	PE     int    `json:"pe"`               // rank, -1 for run-level events
	Kind   string `json:"kind"`             // one of the Event* constants
	Detail string `json:"detail,omitempty"` // human-readable specifics
	N      int64  `json:"n,omitempty"`      // kind-specific magnitude (bytes, attempt, block)
}

// Flight-event kinds recorded by the runtime layers.
const (
	EventRunStart       = "run_start"       // an SPMD attempt begins (N = attempt)
	EventRunFailed      = "run_failed"      // an attempt died (Detail = cause)
	EventRestart        = "restart"         // recovery loop relaunches (N = attempt)
	EventRemap          = "remap"           // lazy/remap exchange executed (N = bytes moved by this PE)
	EventCheckpoint     = "checkpoint"      // checkpoint shard committed (N = bytes)
	EventCkptQueued     = "ckpt_queued"     // checkpoint captured and handed to the writer (N = step)
	EventRestore        = "restore"         // state restored from a checkpoint (N = step)
	EventElastic        = "elastic"         // elastic re-shard to a new fleet size (N = new PEs)
	EventInterrupted    = "interrupted"     // graceful shutdown requested (Detail = signal)
	EventFaultInjected  = "fault_injected"  // injector fired (Detail = verdict)
	EventRetry          = "retry"           // one-sided op re-issued (N = attempt)
	EventBarrierTimeout = "barrier_timeout" // barrier deadline expired
	EventPEFailure      = "pe_failure"      // a PE unwound with a terminal error
)

// DefaultFlightCap is the ring capacity used by NewFlightRecorder.
const DefaultFlightCap = 4096

// NewFlightRecorder creates a recorder holding the last cap events
// (DefaultFlightCap if cap <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	return &FlightRecorder{start: time.Now(), buf: make([]FlightEvent, 0, capacity)}
}

// Record appends an event, evicting the oldest when the ring is full.
// Nil recorders drop the event.
func (f *FlightRecorder) Record(pe int, kind, detail string, n int64) {
	if f == nil {
		return
	}
	t := time.Since(f.start).Nanoseconds()
	f.mu.Lock()
	f.seq++
	ev := FlightEvent{Seq: f.seq, TNS: t, PE: pe, Kind: kind, Detail: detail, N: n}
	if len(f.buf) < cap(f.buf) {
		f.buf = append(f.buf, ev)
	} else {
		f.buf[f.next] = ev
		f.next = (f.next + 1) % len(f.buf)
		f.full = true
	}
	f.mu.Unlock()
}

// Events returns the retained events in recording order.
func (f *FlightRecorder) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.full {
		return append([]FlightEvent(nil), f.buf...)
	}
	out := make([]FlightEvent, 0, len(f.buf))
	out = append(out, f.buf[f.next:]...)
	out = append(out, f.buf[:f.next]...)
	return out
}

// Len returns the number of retained events.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.buf)
}

// Dropped reports how many events were evicted by the ring.
func (f *FlightRecorder) Dropped() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq - int64(len(f.buf))
}

// WriteJSONL writes the retained events, one JSON object per line, in
// recording order.
func (f *FlightRecorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range f.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}
