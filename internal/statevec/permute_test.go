package statevec

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"svsim/internal/circuit"
	"svsim/internal/sched"
)

// permuteCase draws k distinct bit positions below n whose identity
// prefix is exactly prefix entries long (n > k, or prefix == k) and whose
// tail is shuffled (so non-monotone), plus a base over some of the
// positions left unused.
func permuteCase(rng *rand.Rand, n, k, prefix int) (pos []int, base int) {
	for j := 0; j < prefix; j++ {
		pos = append(pos, j)
	}
	rest := rng.Perm(n - prefix)
	for k > prefix && rest[0] == 0 && n > k {
		rest = rng.Perm(n - prefix) // the tail must not extend the prefix
	}
	for _, b := range rest[:k-prefix] {
		pos = append(pos, prefix+b)
	}
	for _, b := range rest[k-prefix:] {
		if rng.Intn(2) == 1 {
			base |= 1 << uint(prefix+b)
		}
	}
	return pos, base
}

// TestPermuteCopyMatchesSpread checks both directions against the
// per-element oracle sched.Spread over identity prefixes 0..k, shuffled
// tails, the empty list, a single bit and random disjoint bases.
func TestPermuteCopyMatchesSpread(t *testing.T) {
	const n = 11
	rng := rand.New(rand.NewSource(15))
	wide := make([]float64, 1<<n)
	for i := range wide {
		wide[i] = float64(i) + 0.5
	}
	for trial := 0; trial < 400; trial++ {
		k := rng.Intn(n + 1)
		if trial < 2 {
			k = trial // the empty list and a single bit, always
		}
		pos, base := permuteCase(rng, n, k, rng.Intn(k+1))
		packed := make([]float64, 1<<uint(k))
		GatherBits(packed, wide, base, pos)
		for i, v := range packed {
			if want := wide[base|sched.Spread(i, pos)]; v != want {
				t.Fatalf("GatherBits(base %#x, pos %v)[%d] = %g, want %g", base, pos, i, v, want)
			}
		}
		// Scatter round-trips the gather and touches nothing else.
		out := make([]float64, len(wide))
		ScatterBits(out, packed, base, pos)
		written := 0
		for i, v := range out {
			if v != 0 {
				written++
				if v != wide[i] {
					t.Fatalf("ScatterBits(base %#x, pos %v) wrote %g at %d, want %g", base, pos, v, i, wide[i])
				}
			}
		}
		if written != len(packed) {
			t.Fatalf("ScatterBits(base %#x, pos %v) wrote %d elements, want %d", base, pos, written, len(packed))
		}
	}
}

func TestPermuteCopyDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	wide := make([]float64, 1<<10)
	for _, prefix := range []int{0, 3, 8} {
		pos, base := permuteCase(rng, 10, 8, prefix)
		packed := make([]float64, 1<<8)
		if a := testing.AllocsPerRun(10, func() {
			GatherBits(packed, wide, base, pos)
			ScatterBits(wide, packed, base, pos)
		}); a != 0 {
			t.Errorf("prefix %d: %g allocations per gather+scatter, want 0", prefix, a)
		}
	}
	part := make([]float64, 1<<8)
	perm := rng.Perm(10)
	if a := testing.AllocsPerRun(10, func() { Unpermute(wide, part, 3, perm) }); a != 0 {
		t.Errorf("Unpermute: %g allocations, want 0", a)
	}
}

// TestPermuteCopyRejectsBadGeometry: a caller's length or position
// mistake must fail before any element moves, never index out of range
// or silently alias two packed elements onto one.
func TestPermuteCopyRejectsBadGeometry(t *testing.T) {
	wide := make([]float64, 16)
	for name, call := range map[string]func(){
		"short packed":       func() { GatherBits(make([]float64, 2), wide, 0, []int{0, 1}) },
		"long packed":        func() { ScatterBits(wide, make([]float64, 8), 0, []int{0, 1}) },
		"position past wide": func() { GatherBits(make([]float64, 2), wide, 0, []int{4}) },
		"base past wide":     func() { GatherBits(make([]float64, 2), wide, 16, []int{0}) },
		"base overlaps":      func() { ScatterBits(wide, make([]float64, 2), 2, []int{1}) },
		"duplicate position": func() { GatherBits(make([]float64, 4), wide, 0, []int{2, 2}) },
		"prefix repeated":    func() { GatherBits(make([]float64, 4), wide, 0, []int{0, 0}) },
		"negative position":  func() { GatherBits(make([]float64, 2), wide, 0, []int{-1}) },
		"unpermute length":   func() { Unpermute(wide, make([]float64, 3), 0, []int{0, 1, 2, 3}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: accepted", name)
				}
			}()
			call()
		}()
	}
}

// TestUnpermuteMatchesPhysicalIndex: filling the logical array partition
// by partition must equal the per-element reference
// logical[x] = physical[perm.PhysicalIndex(x)] at every partition count.
func TestUnpermuteMatchesPhysicalIndex(t *testing.T) {
	const n = 9
	rng := rand.New(rand.NewSource(17))
	phys := make([]float64, 1<<n)
	for i := range phys {
		phys[i] = float64(i) + 0.25
	}
	perms := []circuit.Permutation{circuit.IdentityPermutation(n)}
	for i := 0; i < 20; i++ {
		perms = append(perms, circuit.Permutation(rng.Perm(n)))
	}
	for _, perm := range perms {
		for pes := 1; pes <= 8; pes *= 2 {
			S := len(phys) / pes
			got := make([]float64, len(phys))
			for r := 0; r < pes; r++ {
				Unpermute(got, phys[r*S:(r+1)*S], r, perm)
			}
			for x, v := range got {
				if want := phys[perm.PhysicalIndex(x)]; v != want {
					t.Fatalf("perm %v, %d partitions: logical[%d] = %g, want %g", perm, pes, x, v, want)
				}
			}
		}
	}
}

var permuteSink float64

// BenchmarkPermuteCopy measures the gather at unit-stride run lengths
// 2^0, 2^4, 2^10 and the whole block (a tail of shuffled positions above
// the run), reporting ns/elem and GB/s (8 B read + 8 B written per
// element) next to a plain copy of the same block.
func BenchmarkPermuteCopy(b *testing.B) {
	const n, k = 21, 20
	rng := rand.New(rand.NewSource(18))
	wide := make([]float64, 1<<n)
	for i := range wide {
		wide[i] = float64(i)
	}
	packed := make([]float64, 1<<k)
	report := func(b *testing.B, body func()) {
		body() // fault the pages in outside the timed region
		b.ResetTimer()
		t0 := time.Now()
		for i := 0; i < b.N; i++ {
			body()
		}
		ns := float64(time.Since(t0).Nanoseconds()) / float64(b.N) / float64(len(packed))
		b.ReportMetric(ns, "ns/elem")
		b.ReportMetric(16/ns, "GB/s")
		permuteSink += packed[rng.Intn(len(packed))]
	}
	b.Run("copy", func(b *testing.B) {
		report(b, func() { copy(packed, wide) })
	})
	for _, r := range []int{0, 4, 10, k} {
		pos, base := permuteCase(rng, n, k, r)
		b.Run(fmt.Sprintf("gather/run=2^%d", r), func(b *testing.B) {
			report(b, func() { GatherBits(packed, wide, base, pos) })
		})
		b.Run(fmt.Sprintf("scatter/run=2^%d", r), func(b *testing.B) {
			report(b, func() { ScatterBits(wide, packed, base, pos) })
		})
	}
	b.Run("spread-loop", func(b *testing.B) {
		pos, base := permuteCase(rng, n, k, 4)
		report(b, func() {
			for t := range packed {
				packed[t] = wide[base|sched.Spread(t, pos)]
			}
		})
	})
}
