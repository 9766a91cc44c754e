package compile

import (
	"math/rand"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/qasmbench"
)

// uccsd builds the UCCSD(n) ansatz at a generic (non-degenerate) point.
func uccsd(n int, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	thetas := make([]float64, qasmbench.UCCSDNumParams(n))
	for i := range thetas {
		thetas[i] = 0.05 + rng.Float64()
	}
	return qasmbench.BuildUCCSD(n, thetas)
}

// BenchmarkCompileCold is a fused compile of UCCSD(10) (19,255 gates)
// into an empty cache: what the first point of a sweep pays.
func BenchmarkCompileCold(b *testing.B) {
	c := uccsd(10, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Compile(c, Config{Fuse: true, Cache: NewCache(1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileHit is what every later point pays: another binding of
// the same skeleton through the warm cache — a rebind.
func BenchmarkCompileHit(b *testing.B) {
	cfg := Config{Fuse: true, Cache: NewCache(1)}
	if _, _, err := Compile(uccsd(10, 1), cfg); err != nil {
		b.Fatal(err)
	}
	c := uccsd(10, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, st, err := Compile(c, cfg); err != nil || !st.CacheHit {
			b.Fatalf("hit=%v err=%v", st.CacheHit, err)
		}
	}
}
