package perf

import (
	"math"
	"sort"
)

// quantile returns the p-quantile of xs (0 <= p <= 1) by linear
// interpolation between order statistics; NaN for an empty slice.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail returns the highest percentile of xs, up to the 95th, that still
// has ten samples beyond it, as the choosing-metrics guide asks: p95 from
// 200 samples on, a lower percentile for fewer, and the median for fewer
// than 20 (a run of seven reps has no tail; its slowest rep is noise).
func tail(xs []float64) float64 {
	if len(xs) < 20 {
		return median(xs)
	}
	return quantile(xs, min(0.95, 1-10/float64(len(xs))))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the driver computes spreads with. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of 4 cut points
		m := len(s) + 1
		j := i * m / 4
		j = min(max(j, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
