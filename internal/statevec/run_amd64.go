package statevec

// The AVX2 run bodies (paper Listing 2): twins in run_amd64.s for each
// body in kernels.go, for iter.pauliRot and for a diagonal run's block
// (one table and two), four amplitudes (pairs, for pauliRot) per
// instruction. A body hands its twin every visit of a Vectorized call
// that leaves one of bits 0 and 1 free (iter.twin), as whole aligned
// 4-amplitude blocks, and the twin moves lanes only around the body's
// arithmetic (one macro each in run_amd64.s): pairing lanes by shuffle,
// blending back the ones the gate leaves. So the contract is that a twin
// computes what the body's Go loop computes, to the bit, on every lane:
// the same multiplies, adds and subtracts in the same association order,
// no fused multiply-add, negation as a sign-bit flip. A body twin stores
// every lane of a block it visits, so a block is one caller's: pool
// shares are cut on multiples of four compressed indices (window.iter),
// and a share's blocks and their partner blocks are its own. A body
// twin's caller has checked the first and last block of each run and of
// its partners (iter.reach); the Pauli rotation's has checked the whole
// window, whose partners lie anywhere in it, and n is a positive
// multiple of 4; a diagonal run's, the first and last visited amplitude
// and the largest key of each table (DiagTables.steps). The pointers
// need no alignment.

// haveAVX2 routes runs to the twins. It is read from the CPU
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

// The body twins: the arithmetic of kernels.go's bodies over the whole
// blocks [p, end) with stride of a window addressed from re, im, in the
// mode l gives (blockLanes): mode 0 one block and its partner block a
// step, modes 1 and 2 two blocks (the middle block of an odd run pairs
// with itself), mode 3 one block and its partner block, blending back
// the lanes the gate leaves.

//go:noescape
func xAVX2(re, im *float64, p, end, stride int, l *blockLanes)

//go:noescape
func yAVX2(re, im *float64, p, end, stride int, l *blockLanes)

//go:noescape
func hAVX2(re, im *float64, p, end, stride int, l *blockLanes)

//go:noescape
func sxAVX2(re, im *float64, p, end, stride int, l *blockLanes, dg bool)

//go:noescape
func rxAVX2(re, im *float64, p, end, stride int, l *blockLanes, c, sn float64)

//go:noescape
func ryAVX2(re, im *float64, p, end, stride int, l *blockLanes, c, sn float64)

//go:noescape
func u2AVX2(re, im *float64, p, end, stride int, l *blockLanes, u *[8][4]float64)

//go:noescape
func phaseAVX2(re, im *float64, p, end, stride int, l *blockLanes, c, sn float64)

// The Pauli rotation's twin: re, im address the whole window, p is the
// 4-aligned start of n pairs, x and z the string's masks (z without its
// bits 0 and 1), cross says f is imaginary.
//
//go:noescape
func pauliRotAVX2(re, im *float64, p, n, x, z int, c float64, k *pauliLanes, cross bool)

// The diagonal run's twins, over the n/4 steps of visit: a step's first
// value v names the four amplitudes (r, i) at off+v .. off+v+3, and the
// one at off+v+l is multiplied by t0[k0|lo0[v+l]], or for two tables by
// mulAmp(t0[k0|lo0[v+l]], t1[k1|lo1[v+l]]) — DiagTables.lookup's Go loop.
// DiagTables.steps has checked every address the steps form.

//go:noescape
func diagBlock1AVX2(r, i *float64, off int, visit *uint16, n int, lo0 *uint16, t0 *[2]float64, k0 int)

//go:noescape
func diagBlock2AVX2(r, i *float64, off int, visit *uint16, n int, lo0, lo1 *uint16, t0, t1 *[2]float64, k0, k1 int)
