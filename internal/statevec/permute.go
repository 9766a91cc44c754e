package statevec

import (
	"fmt"
	"math/bits"
	"slices"
)

// This file is the one bit-permutation copy every amplitude reshuffle
// runs through: the pack and unpack halves of a remap exchange and the
// un-permute of a gathered result. Both directions pair a packed slice,
// indexed by t = 0 .. 2^k-1, with the elements of a wide slice at
//
//	base | deposit(t, pos)
//
// where deposit puts bit j of t at position pos[j]. The walk never
// computes a deposit per element. The identity prefix of pos
// (pos[j] == j for j < r) makes every 2^r consecutive t one unit-stride
// run of the wide slice, moved with copy; stepping from run u to run u+1
// flips the trailing ones of u and the zero above them, so the wide
// offset advances by one XOR with delta[trailing ones of u], the deposit
// of that many low ones plus one. pos need not be ascending: a remap's
// image list and a final permutation are not.

// GatherBits sets dst[t] = src[base | deposit(t, pos)] for every t.
// len(dst) must be 1 << len(pos); pos must hold distinct bit positions
// that avoid the set bits of base and keep every index inside src.
func GatherBits(dst, src []float64, base int, pos []int) {
	permuteCopy(dst, src, base, pos, false)
}

// ScatterBits is the mirror of GatherBits:
// dst[base | deposit(t, pos)] = src[t] for every t, len(src) == 1 << len(pos).
func ScatterBits(dst, src []float64, base int, pos []int) {
	permuteCopy(src, dst, base, pos, true)
}

// minRunBits is the shortest identity prefix walked as runs: below 8
// elements the call into copy costs more than moving them one by one.
const minRunBits = 3

func permuteCopy(packed, wide []float64, base int, pos []int, scatter bool) {
	k := len(pos)
	var delta [bits.UintSize]int
	if k >= len(delta) || len(packed) != 1<<uint(k) {
		panic(fmt.Sprintf("statevec: permute copy of %d elements over %d bit positions", len(packed), k))
	}
	r := 0
	for r < k && pos[r] == r {
		r++
	}
	if r < minRunBits {
		r = 0
	}
	// The panics format a clone of pos: formatting pos itself would make
	// every caller's (stack) position list escape to the heap.
	low := 1<<uint(r) - 1
	mask := low
	for j, b := range pos[r:] {
		if b < 0 || b >= len(delta)-1 || mask>>uint(b)&1 != 0 {
			panic(fmt.Sprintf("statevec: permute copy over invalid bit positions %v", slices.Clone(pos)))
		}
		mask |= 1 << uint(b)
		delta[j] = mask &^ low
	}
	if base < 0 || base&mask != 0 || base|mask >= len(wide) {
		panic(fmt.Sprintf("statevec: permute copy base %#x, positions %v outside %d elements", base, slices.Clone(pos), len(wide)))
	}
	// delta[k-r] is zero, so the step after the last run is harmless.
	off := base
	if r == 0 {
		if scatter {
			for t, v := range packed {
				wide[off] = v
				off ^= delta[bits.TrailingZeros(^uint(t))]
			}
		} else {
			for t := range packed {
				packed[t] = wide[off]
				off ^= delta[bits.TrailingZeros(^uint(t))]
			}
		}
		return
	}
	run := 1 << uint(r)
	for u := 0; u<<uint(r) < len(packed); u++ {
		p, w := packed[u<<uint(r):][:run], wide[off:][:run]
		if scatter {
			copy(w, p)
		} else {
			copy(p, w)
		}
		off ^= delta[bits.TrailingZeros(^uint(u))]
	}
}

// Unpermute writes one partition of a distributed state laid out under
// perm — logical qubit q at physical bit perm[q], part holding physical
// indices [rank*len(part), (rank+1)*len(part)) — into the logical-order
// array dst: dst[x] = physical[deposit(x, perm)] for every x the
// partition holds. Calling it once per partition fills dst without a
// gathered temporary; an identity perm degenerates to one copy per
// partition.
func Unpermute(dst, part []float64, rank int, perm []int) {
	m := bits.Len(uint(len(part))) - 1
	var inv [bits.UintSize]int // physical bit -> logical qubit
	if len(perm) > len(inv) || m < 0 || m > len(perm) || len(part) != 1<<uint(m) {
		panic(fmt.Sprintf("statevec: unpermute of a %d-element partition under %d qubits", len(part), len(perm)))
	}
	for q, b := range perm {
		if b < 0 || b >= len(perm) {
			panic(fmt.Sprintf("statevec: unpermute under invalid permutation %v", slices.Clone(perm)))
		}
		inv[b] = q
	}
	base := 0
	for j, q := range inv[m:len(perm)] {
		base |= rank >> uint(j) & 1 << uint(q)
	}
	ScatterBits(dst, part, base, inv[:m])
}
