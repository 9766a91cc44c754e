//go:build !amd64

package statevec

// No AVX2 twins off amd64: the switch is the constant false, so the
// compiler drops the twin calls and every run takes the body's Go loop.
const haveAVX2 = false

const noTwin = "statevec: AVX2 run body called off amd64"

func xAVX2(r0, i0, r1, i1 *float64, n int)                 { panic(noTwin) }
func yAVX2(r0, i0, r1, i1 *float64, n int)                 { panic(noTwin) }
func hAVX2(r0, i0, r1, i1 *float64, n int)                 { panic(noTwin) }
func sxAVX2(r0, i0, r1, i1 *float64, n int, dg bool)       { panic(noTwin) }
func rxAVX2(r0, i0, r1, i1 *float64, n int, c, sn float64) { panic(noTwin) }
func ryAVX2(r0, i0, r1, i1 *float64, n int, c, sn float64) { panic(noTwin) }
func u2AVX2(r0, i0, r1, i1 *float64, n int, u *[8]float64) { panic(noTwin) }
func phaseAVX2(r, i *float64, n int, c, sn float64)        { panic(noTwin) }

func pauliRotAVX2(re, im *float64, p, n, x, z int, c float64, k *pauliLanes, cross bool) {
	panic(noTwin)
}

func diagBlock1AVX2(r, i *float64, off int, visit *uint16, n int, lo0 *uint16, t0 *[2]float64, k0 int) {
	panic(noTwin)
}

func diagBlock2AVX2(r, i *float64, off int, visit *uint16, n int, lo0, lo1 *uint16, t0, t1 *[2]float64, k0, k1 int) {
	panic(noTwin)
}
