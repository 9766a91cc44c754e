package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Metrics is a registry of named counters, gauges, and fixed-bucket
// histograms. Registration (Counter/Gauge/Histogram) takes a lock and
// should happen once per run per instrument; recording on the returned
// handles is lock-free (atomic adds), so PE goroutines share handles
// safely.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil counter, which drops all adds.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.counters[name]
	if c == nil {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds (ascending) on first use; bounds of an existing
// histogram are kept. A nil registry returns a nil histogram.
func (m *Metrics) Histogram(name string, bounds []float64) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		m.hists[name] = h
	}
	return h
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil gauge, which drops all sets.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	g := m.gauges[name]
	if g == nil {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Gauge is an instantaneous float64 value that can go up or down
// (current heap bytes, uptime, active PEs). Set and Value are lock-free.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. Nil gauges drop the set.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. Nil counters drop the add.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-bucket histogram with inclusive upper bounds: an
// observation v lands in the first bucket whose bound satisfies
// v <= bound, or in the trailing overflow bucket. Observe is lock-free.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is overflow
	sumBits atomic.Uint64  // float64 bits of the observation sum
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one observation. Nil histograms drop it.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Bounds returns the bucket upper bounds.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}

// BucketCounts returns the per-bucket counts; the final entry is the
// overflow bucket.
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for _, c := range h.BucketCounts() {
		n += c
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start and multiplying by factor: start, start*factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// HistogramSnapshot is the point-in-time form of one histogram.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []int64 // len(Bounds)+1, last is overflow
	Count  int64
	Sum    float64
}

// Snapshot is the point-in-time form of the whole registry, read by the
// OpenMetrics rendering and by tests.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// Snapshot captures the registry's current values.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if m == nil {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, c := range m.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range m.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range m.hists {
		s.Histograms[name] = HistogramSnapshot{
			Bounds: h.Bounds(),
			Counts: h.BucketCounts(),
			Count:  h.Count(),
			Sum:    h.Sum(),
		}
	}
	return s
}
