package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Tracer records per-gate span events onto per-PE tracks and serializes
// them in the Chrome trace-event format. Create one per run, hand
// Track(rank) to each PE goroutine, and write the file after the SPMD
// region has completed.
type Tracer struct {
	start time.Time

	mu     sync.Mutex
	tracks []*Track
}

// NewTracer creates an empty tracer; the creation instant is the zero
// point of every span timestamp.
func NewTracer() *Tracer { return &Tracer{start: time.Now()} }

// Track returns the event track of PE rank pe, creating tracks on first
// use. Safe to call concurrently from PE goroutines at SPMD start; the
// returned Track must afterwards be used only by that PE's goroutine.
// A nil Tracer returns a nil Track, which records nothing.
func (t *Tracer) Track(pe int) *Track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.tracks) <= pe {
		t.tracks = append(t.tracks, &Track{pe: len(t.tracks), start: t.start})
	}
	return t.tracks[pe]
}

// Tracks returns all tracks created so far, indexed by PE rank. Call
// only after the SPMD region has completed.
func (t *Tracer) Tracks() []*Track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Track(nil), t.tracks...)
}

// TotalEvents counts recorded spans across all tracks.
func (t *Tracer) TotalEvents() int {
	n := 0
	for _, tr := range t.Tracks() {
		n += len(tr.events)
	}
	return n
}

// Track is one PE's ordered span sequence. It is appended without
// locking: exactly one goroutine owns it during an SPMD region.
type Track struct {
	pe     int
	start  time.Time
	events []SpanEvent
}

// PE returns the track's PE rank.
func (tr *Track) PE() int { return tr.pe }

// Events returns the recorded spans in order.
func (tr *Track) Events() []SpanEvent {
	if tr == nil {
		return nil
	}
	return tr.events
}

// SpanEvent is one recorded gate execution.
type SpanEvent struct {
	Name string
	TS   int64 // span start, nanoseconds since tracer creation
	Dur  int64 // span duration in nanoseconds
	Args SpanArgs
}

// SpanArgs attributes communication work to a span. One-sided fields are
// filled by the pgas backends, two-sided fields by the mpi backend;
// zero fields are omitted from the serialized trace.
type SpanArgs struct {
	Kind        string // gate mnemonic
	Qubits      string // operand qubits, e.g. "2,14"
	Phase       string // wall-time phase bucket (see phases.go); "" = compute
	Block       int    // 1-based schedule block; 0 = unattributed
	LocalBytes  int64  // one-sided bytes to the PE's own partition
	RemoteBytes int64  // one-sided bytes to peer partitions
	LocalMsgs   int64  // one-sided local operations
	RemoteMsgs  int64  // one-sided remote operations
	Barriers    int64  // barriers entered during the span
	Msgs        int64  // two-sided messages sent
	MsgBytes    int64  // two-sided payload bytes
	PackBytes   int64  // pack/unpack bytes staged
}

// SpanAt records a complete span covering [start, end]. Nil tracks
// record nothing. Spans must be recorded in nondecreasing start order,
// which the per-gate run loops guarantee naturally.
func (tr *Track) SpanAt(name string, start, end time.Time, args SpanArgs) {
	if tr == nil {
		return
	}
	ts := start.Sub(tr.start).Nanoseconds()
	if ts < 0 {
		ts = 0
	}
	dur := end.Sub(start).Nanoseconds()
	if dur < 0 {
		dur = 0
	}
	tr.events = append(tr.events, SpanEvent{Name: name, TS: ts, Dur: dur, Args: args})
}

// chromeEvent is one entry of the trace-event JSON array. Timestamps and
// durations are microseconds (floats), per the format specification.
type chromeEvent struct {
	Name string     `json:"name"`
	Cat  string     `json:"cat,omitempty"`
	Ph   string     `json:"ph"`
	PID  int        `json:"pid"`
	TID  int        `json:"tid"`
	TS   float64    `json:"ts"`
	Dur  float64    `json:"dur"`
	Args chromeArgs `json:"args,omitempty"`
}

type chromeArgs struct {
	Name        string `json:"name,omitempty"` // metadata events
	SortIndex   int    `json:"sort_index,omitempty"`
	Kind        string `json:"kind,omitempty"`
	Qubits      string `json:"qubits,omitempty"`
	Phase       string `json:"phase,omitempty"`
	Block       int    `json:"block,omitempty"`
	LocalBytes  int64  `json:"local_bytes,omitempty"`
	RemoteBytes int64  `json:"remote_bytes,omitempty"`
	LocalMsgs   int64  `json:"local_msgs,omitempty"`
	RemoteMsgs  int64  `json:"remote_msgs,omitempty"`
	Barriers    int64  `json:"barriers,omitempty"`
	Msgs        int64  `json:"msgs,omitempty"`
	MsgBytes    int64  `json:"msg_bytes,omitempty"`
	PackBytes   int64  `json:"pack_bytes,omitempty"`
}

// WriteJSON serializes the trace as a Chrome trace-event JSON object
// ({"traceEvents": [...]}): per-PE thread_name metadata followed by one
// complete ("X") event per span, tid = PE rank.
func (t *Tracer) WriteJSON(w io.Writer) error {
	out := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{DisplayTimeUnit: "ns"}

	tracks := t.Tracks()
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", Args: chromeArgs{Name: "svsim"},
	})
	for _, tr := range tracks {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", TID: tr.pe,
			Args: chromeArgs{Name: threadName(tr.pe)},
		})
	}
	for _, tr := range tracks {
		for i := range tr.events {
			e := &tr.events[i]
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: e.Name, Cat: "gate", Ph: "X", TID: tr.pe,
				TS:  float64(e.TS) / 1e3,
				Dur: float64(e.Dur) / 1e3,
				Args: chromeArgs{
					Kind:        e.Args.Kind,
					Qubits:      e.Args.Qubits,
					Phase:       e.Args.Phase,
					Block:       e.Args.Block,
					LocalBytes:  e.Args.LocalBytes,
					RemoteBytes: e.Args.RemoteBytes,
					LocalMsgs:   e.Args.LocalMsgs,
					RemoteMsgs:  e.Args.RemoteMsgs,
					Barriers:    e.Args.Barriers,
					Msgs:        e.Args.Msgs,
					MsgBytes:    e.Args.MsgBytes,
					PackBytes:   e.Args.PackBytes,
				},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}

func threadName(pe int) string { return "PE " + itoa(pe) }

// itoa avoids pulling strconv into the hot-path package surface for one
// cold call site.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := n < 0
	if neg {
		n = -n
	}
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
