package statevec

// The AVX2 run bodies (paper Listing 2): one twin in run_amd64.s for the
// inner run of each body in kernels.go, of iter.pauliRot and of a
// diagonal run's block (one table and two), four amplitudes (pairs, for
// pauliRot) per instruction.
// A body hands a unit-stride run's 4-aligned length to its twin and
// finishes the remainder in its own Go loop, so the contract is that a
// twin computes what that loop computes, to the bit, on every lane: the
// same multiplies, adds and subtracts in the same association order, no
// fused multiply-add, negation as a sign-bit flip. n is a positive
// multiple of 4 and the caller has bounds-checked n elements behind
// every pointer (iter.at; the whole window for the Pauli rotation, whose
// partners lie anywhere in it; for a diagonal run, the first and last
// visited amplitude and the largest key of each table, DiagTables.steps);
// the pointers need no alignment.

// haveAVX2 routes unit-stride runs to the twins. It is read from the CPU
// once, here; only tests write it, to compare the two paths.
var haveAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU has AVX2 and POPCNT (the Pauli
// rotation twin counts a chunk's Z parity with it) and the OS saves the
// YMM registers across context switches.
func detectAVX2() bool {
	const popcnt, osxsave, avx, avx2 = 1 << 23, 1 << 27, 1 << 28, 1 << 5
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&popcnt == 0 || c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state both enabled
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// Pairing twins: a0 = (r0, i0) and a1 = (r1, i1) are the two halves of n
// pairs, a1 lying d amplitudes from a0.

//go:noescape
func xAVX2(r0, i0, r1, i1 *float64, n int)

//go:noescape
func yAVX2(r0, i0, r1, i1 *float64, n int)

//go:noescape
func hAVX2(r0, i0, r1, i1 *float64, n int)

//go:noescape
func sxAVX2(r0, i0, r1, i1 *float64, n int, dg bool)

//go:noescape
func rxAVX2(r0, i0, r1, i1 *float64, n int, c, sn float64)

//go:noescape
func ryAVX2(r0, i0, r1, i1 *float64, n int, c, sn float64)

//go:noescape
func u2AVX2(r0, i0, r1, i1 *float64, n int, u *[8]float64)

// The Pauli rotation's twin: re, im address the whole window, p is the
// 4-aligned start of n pairs, x and z the string's masks (z without its
// bits 0 and 1), cross says f is imaginary.
//
//go:noescape
func pauliRotAVX2(re, im *float64, p, n, x, z int, c float64, k *pauliLanes, cross bool)

// The element-wise twin over n amplitudes (r, i).

//go:noescape
func phaseAVX2(r, i *float64, n int, c, sn float64)

// The diagonal run's twins, over the n/4 steps of visit: a step's first
// value v names the four amplitudes (r, i) at off+v .. off+v+3, and the
// one at off+v+l is multiplied by t0[k0|lo0[v+l]], or for two tables by
// mulAmp(t0[k0|lo0[v+l]], t1[k1|lo1[v+l]]) — DiagTables.lookup's Go loop.
// DiagTables.steps has checked every address the steps form.

//go:noescape
func diagBlock1AVX2(r, i *float64, off int, visit *uint16, n int, lo0 *uint16, t0 *[2]float64, k0 int)

//go:noescape
func diagBlock2AVX2(r, i *float64, off int, visit *uint16, n int, lo0, lo1 *uint16, t0, t1 *[2]float64, k0, k1 int)
