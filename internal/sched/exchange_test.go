package sched

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/qasmbench"
)

// randomSwaps draws a disjoint swap list over n bits of which localBits
// are local: 1..k distinct rank bits paired with as many distinct local
// bits, in random order.
func randomSwaps(rng *rand.Rand, n, localBits int) []Swap {
	k := n - localBits
	nSwaps := 1 + rng.Intn(min(k, localBits))
	globals := rng.Perm(k)[:nSwaps]
	locals := rng.Perm(localBits)[:nSwaps]
	swaps := make([]Swap, nSwaps)
	for i := range swaps {
		swaps[i] = Swap{Global: localBits + globals[i], Local: locals[i]}
	}
	return swaps
}

// randomRemap draws a remap at P ranks (n bits, a random starting
// layout) and its geometry.
func randomRemap(t *testing.T, rng *rand.Rand, p int) (n, localBits int, perm circuit.Permutation, swaps []Swap, ex *Exchange) {
	t.Helper()
	k := bits.Len(uint(p - 1))
	localBits = k + 1 + rng.Intn(4)
	if localBits < 2 {
		localBits = 2
	}
	n = localBits + k
	perm = circuit.IdentityPermutation(n)
	for i := 0; i < n; i++ {
		perm.SwapPhysical(rng.Intn(n), rng.Intn(n))
	}
	swaps = randomSwaps(rng, n, localBits)
	ex, err := NewExchange(swaps, n, localBits)
	if err != nil {
		t.Fatalf("NewExchange(%v): %v", swaps, err)
	}
	return n, localBits, perm, swaps, ex
}

// moved returns the physical index the amplitude at physical index y
// occupies after the remap: the oracle, through the permutation.
func moved(y int, before, after circuit.Permutation) int {
	return after.PhysicalIndex(inverse(before, y))
}

// inverse returns the logical index whose physical index under perm is y.
func inverse(perm circuit.Permutation, y int) int {
	x := 0
	for q, b := range perm {
		x |= y >> uint(b) & 1 << uint(q)
	}
	return x
}

func applied(perm circuit.Permutation, swaps []Swap) circuit.Permutation {
	after := perm.Clone()
	for _, sw := range swaps {
		after.SwapPhysical(sw.Global, sw.Local)
	}
	return after
}

// TestExchangePairsSendWhereTheyLand: at every step, rank s and its peer
// name each other, and every amplitude of s's chunk belongs, by the
// permutation oracle, at the same element of the peer's chunk — so each
// pair trades one region in place — at 2, 4, 8 and 16 ranks.
func TestExchangePairsSendWhereTheyLand(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, p := range []int{2, 4, 8, 16} {
		for trial := 0; trial < 20; trial++ {
			_, localBits, perm, swaps, ex := randomRemap(t, rng, p)
			after := applied(perm, swaps)
			S := 1 << uint(localBits)
			region := 1 << len(ex.Free)
			if ex.Steps()*ex.ChunkLen() != int(ex.MovedAmps()) || ex.MovedAmps() != int64(S-region) {
				t.Fatalf("P=%d swaps=%v: %d steps of %d amplitudes, %d moved, want S - region = %d",
					p, swaps, ex.Steps(), ex.ChunkLen(), ex.MovedAmps(), S-region)
			}
			for s := 0; s < p; s++ {
				for j := 0; j < ex.Steps(); j++ {
					peer, base, pos := ex.Step(s, j)
					back, pbase, ppos := ex.Step(peer, j)
					if peer == s || back != s {
						t.Fatalf("P=%d swaps=%v step %d: rank %d pairs with %d, which pairs with %d", p, swaps, j, s, peer, back)
					}
					for i := 0; i < 1<<uint(len(pos)); i++ {
						src := s*S | base | Spread(i, pos)
						dst := peer*S | pbase | Spread(i, ppos)
						if got := moved(src, perm, after); got != dst {
							t.Fatalf("P=%d swaps=%v step %d: element %d of rank %d's chunk belongs at %d, lands at %d",
								p, swaps, j, i, s, got, dst)
						}
					}
				}
			}
		}
	}
}

// runExchange runs every step of ex on a flat array of p ranks' shards
// the way the exchange body does — each pair swaps its chunk in place —
// and returns the result; v is left as it was.
func runExchange(ex *Exchange, v []float64, localBits, p int) []float64 {
	S := 1 << uint(localBits)
	got := append([]float64(nil), v...)
	for j := 0; j < ex.Steps(); j++ {
		chunks := make([][]float64, p)
		for s := 0; s < p; s++ {
			_, base, pos := ex.Step(s, j)
			for i := 0; i < 1<<uint(len(pos)); i++ {
				chunks[s] = append(chunks[s], got[s*S|base|Spread(i, pos)])
			}
		}
		for s := 0; s < p; s++ {
			peer, base, pos := ex.Step(s, j)
			for i, a := range chunks[peer] {
				got[s*S|base|Spread(i, pos)] = a
			}
		}
	}
	return got
}

// applySwapsDirect permutes a flat array the slow, obviously-correct way:
// each swap exchanges two physical bit positions of every index.
func applySwapsDirect(v []float64, swaps []Swap) []float64 {
	cur := v
	for _, sw := range swaps {
		next := make([]float64, len(cur))
		for i := range cur {
			next[swapIndexBits(i, sw.Global, sw.Local)] = cur[i]
		}
		cur = next
	}
	return cur
}

// TestExchangeMatchesDirectPermutation runs every step of random remaps
// on a flat array (runExchange) and requires the result to equal the
// direct permutation through the oracle, at 2, 4, 8 and 16 ranks and
// from a random starting layout. Amplitudes outside every chunk (the
// region a rank keeps) must not move.
func TestExchangeMatchesDirectPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, p := range []int{2, 4, 8, 16} {
		for trial := 0; trial < 20; trial++ {
			n, localBits, perm, swaps, ex := randomRemap(t, rng, p)
			v := make([]float64, 1<<uint(n))
			for i := range v {
				v[i] = float64(i)
			}
			got := runExchange(ex, v, localBits, p)
			after := applied(perm, swaps)
			want := make([]float64, len(v))
			for y, a := range v {
				want[moved(y, perm, after)] = a
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("P=%d n=%d swaps=%v: element %d = %g, want %g", p, n, swaps, i, got[i], want[i])
				}
			}
			if direct := applySwapsDirect(v, swaps); !slices.Equal(got, direct) {
				t.Fatalf("P=%d n=%d swaps=%v: exchange differs from swapping the physical bits", p, n, swaps)
			}
		}
	}
}

// TestExchangeChainedRemapsCompose: two sequential exchanges equal the
// direct application of both swap lists in order (the executor applies
// remaps one at a time).
func TestExchangeChainedRemapsCompose(t *testing.T) {
	n, localBits, p := 7, 5, 4
	rng := rand.New(rand.NewSource(5))
	v := make([]float64, 1<<uint(n))
	for i := range v {
		v[i] = rng.Float64()
	}
	s1 := []Swap{{Global: 5, Local: 0}, {Global: 6, Local: 1}}
	s2 := []Swap{{Global: 6, Local: 2}}
	e1, err := NewExchange(s1, n, localBits)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewExchange(s2, n, localBits)
	if err != nil {
		t.Fatal(err)
	}
	got := runExchange(e2, runExchange(e1, v, localBits, p), localBits, p)
	want := applySwapsDirect(applySwapsDirect(v, s1), s2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d = %g, want %g", i, got[i], want[i])
		}
	}
}

// TestExchangeChunksBoundTheStep: a region larger than ChunkAmps moves
// in chunks of exactly ChunkAmps, one region after another.
func TestExchangeChunksBoundTheStep(t *testing.T) {
	m := bits.Len(uint(ChunkAmps)) + 1 // regions of 2 * ChunkAmps at one swap
	ex, err := NewExchange([]Swap{{Global: m + 1, Local: 3}}, m+2, m)
	if err != nil {
		t.Fatal(err)
	}
	if region := 1 << len(ex.Free); ex.ChunkLen() != ChunkAmps || ex.Steps() != 2 || region != 2*ChunkAmps {
		t.Fatalf("chunk %d, %d steps, region %d; want %d, 2, %d", ex.ChunkLen(), ex.Steps(), region, ChunkAmps, 2*ChunkAmps)
	}
	// Rank 0 trades with rank 2 (rank bit 1), the region with local bit 3
	// set, in two halves split by the top free bit.
	for j, wantBase := range []int{1 << 3, 1<<3 | 1<<uint(m-1)} {
		peer, base, pos := ex.Step(0, j)
		if peer != 2 || base != wantBase || len(pos) != bits.Len(uint(ChunkAmps))-1 {
			t.Fatalf("step %d: peer %d base %#x %d positions; want 2, %#x, %d", j, peer, base, len(pos), wantBase, bits.Len(uint(ChunkAmps))-1)
		}
	}
}

// TestNewExchangeRejectsReusedBits: a swap list that is not disjoint
// local/global transpositions has no pairwise geometry.
func TestNewExchangeRejectsReusedBits(t *testing.T) {
	for _, swaps := range [][]Swap{
		{{Global: 6, Local: 0}, {Global: 6, Local: 1}}, // global bit twice
		{{Global: 6, Local: 0}, {Global: 7, Local: 0}}, // local bit twice
		{{Global: 3, Local: 0}},                        // not a global bit
		{{Global: 8, Local: 0}},                        // outside the register
	} {
		if _, err := NewExchange(swaps, 8, 6); err == nil {
			t.Errorf("NewExchange(%v) accepted", swaps)
		}
	}
}

// TestLazyPlansBuildPairwiseExchanges: every remap of every medium-suite
// lazy plan at 2 to 16 ranks is a disjoint swap list, so its geometry
// builds.
func TestLazyPlansBuildPairwiseExchanges(t *testing.T) {
	remaps := 0
	for _, e := range qasmbench.Medium() {
		c := e.Build()
		for _, p := range []int{2, 4, 8, 16} {
			localBits := c.NumQubits - bits.Len(uint(p-1))
			plan, err := Build(c, localBits, Lazy)
			if err != nil {
				t.Fatal(err)
			}
			for si, st := range plan.Steps {
				if st.Kind != StepRemap {
					continue
				}
				remaps++
				if _, err := NewExchange(st.Swaps, c.NumQubits, localBits); err != nil {
					t.Errorf("%s at P=%d, step %d: %v", e.Name, p, si, err)
				}
			}
		}
	}
	if remaps == 0 {
		t.Fatal("no medium-suite plan remaps; the test is vacuous")
	}
}
