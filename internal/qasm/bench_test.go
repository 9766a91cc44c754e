package qasm

import (
	"testing"

	"svsim/internal/qasmbench"
)

// BenchmarkParse parses the inline QASM of the service's mixed workload:
// the dumps of the eight medium suite circuits plus rqc. It reports the
// time per parsed gate beside the allocations per pass over all nine.
func BenchmarkParse(b *testing.B) {
	rqc, err := qasmbench.ByName("rqc")
	if err != nil {
		b.Fatal(err)
	}
	var srcs []string
	gates := 0
	for _, e := range append(qasmbench.Medium(), rqc) {
		c := e.Build()
		srcs = append(srcs, Dump(c))
		gates += c.NumGates()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			if _, err := Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/float64(gates), "us/gate")
}
