package perf

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call from the benchmark into a layer. Name is
// "<layer>.<function>"; Parent is the ID of the span that caused it (0 for
// a root) and Op identifies the rep, point or job it belongs to.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. The nil Recorder
// records nothing, so untraced runs pay one nil check per call site.
type Recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// NewRecorder starts a recorder whose span times count from now.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Start opens a span and returns its ID (0 on a nil recorder).
func (r *Recorder) Start(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, StartNS: now})
	return len(r.spans)
}

// End closes the span Start returned.
func (r *Recorder) End(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNS = now
	r.mu.Unlock()
}

// Spans returns a copy of what was recorded.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Layer is the part of a span name before the first dot.
func (s Span) Layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// SelfTimes folds spans into seconds of self time per layer: a span's
// duration minus the part of it its direct children cover (children that
// overlap each other, as the two vqe workers do, are counted once).
func SelfTimes(spans []Span) map[string]float64 {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Layer()] += float64(s.EndNS-s.StartNS-covered(children[s.ID], s.StartNS, s.EndNS)) / 1e9
	}
	return out
}

// covered returns the length of the union of the spans' intervals,
// clipped to [lo, hi].
func covered(spans []Span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })
	var total int64
	at := lo
	for _, s := range spans {
		start, end := max(s.StartNS, at), min(s.EndNS, hi)
		if end > start {
			total += end - start
			at = end
		}
	}
	return total
}
