package obs

import "testing"

func TestHistogramBucketBoundaries(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("lat", []float64{10, 100, 1000})

	// Upper bounds are inclusive: v lands in the first bucket with
	// v <= bound; values above every bound land in the overflow bucket.
	cases := []struct {
		v      float64
		bucket int
	}{
		{0, 0}, {10, 0}, {10.0001, 1}, {100, 1}, {101, 2}, {1000, 2}, {1001, 3}, {1e9, 3},
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	counts := h.BucketCounts()
	if len(counts) != 4 {
		t.Fatalf("bucket count = %d, want bounds+1 = 4", len(counts))
	}
	want := make([]int64, 4)
	for _, c := range cases {
		want[c.bucket]++
	}
	for i := range counts {
		if counts[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, counts[i], want[i], counts)
		}
	}
	if h.Count() != int64(len(cases)) {
		t.Fatalf("Count = %d, want %d", h.Count(), len(cases))
	}
	var sum float64
	for _, c := range cases {
		sum += c.v
	}
	if h.Sum() != sum {
		t.Fatalf("Sum = %g, want %g", h.Sum(), sum)
	}
}

func TestHistogramHandleStable(t *testing.T) {
	m := NewMetrics()
	h1 := m.Histogram("x", []float64{1, 2})
	h2 := m.Histogram("x", []float64{99}) // bounds of the existing histogram win
	if h1 != h2 {
		t.Fatal("same name must return the same histogram")
	}
	if got := h1.Bounds(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("bounds changed on re-registration: %v", got)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(8, 4, 4)
	want := []float64{8, 32, 128, 512}
	if len(b) != len(want) {
		t.Fatalf("len = %d, want %d", len(b), len(want))
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
}

func TestCounters(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("ops")
	c.Add(3)
	c.Add(4)
	if c.Value() != 7 {
		t.Fatalf("counter = %d, want 7", c.Value())
	}
	if m.Counter("ops") != c {
		t.Fatal("same name must return the same counter")
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var m *Metrics
	m.Counter("x").Add(1)
	m.Histogram("y", []float64{1}).Observe(2)
	if m.Counter("x").Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	snap := m.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}
