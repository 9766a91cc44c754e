//go:build !amd64

package statevec

// No AVX2 twins off amd64: the switch is the constant false, so the
// compiler drops the twin calls and every run takes the body's Go loop.
const haveAVX2 = false

const noTwin = "statevec: AVX2 run body called off amd64"

func xAVX2(re, im *float64, p, end, stride int, l *blockLanes)           { panic(noTwin) }
func yAVX2(re, im *float64, p, end, stride int, l *blockLanes)           { panic(noTwin) }
func hAVX2(re, im *float64, p, end, stride int, l *blockLanes)           { panic(noTwin) }
func sxAVX2(re, im *float64, p, end, stride int, l *blockLanes, dg bool) { panic(noTwin) }
func rxAVX2(re, im *float64, p, end, stride int, l *blockLanes, c, sn float64) {
	panic(noTwin)
}
func ryAVX2(re, im *float64, p, end, stride int, l *blockLanes, c, sn float64) {
	panic(noTwin)
}
func u2AVX2(re, im *float64, p, end, stride int, l *blockLanes, u *[8][4]float64) {
	panic(noTwin)
}
func phaseAVX2(re, im *float64, p, end, stride int, l *blockLanes, c, sn float64) {
	panic(noTwin)
}

func pauliRotAVX2(re, im *float64, p, n, x, z int, c float64, k *pauliLanes, cross bool) {
	panic(noTwin)
}

func diagBlock1AVX2(r, i *float64, off int, visit *uint16, n int, lo0 *uint16, t0 *[2]float64, k0 int) {
	panic(noTwin)
}

func diagBlock2AVX2(r, i *float64, off int, visit *uint16, n int, lo0, lo1 *uint16, t0, t1 *[2]float64, k0, k1 int) {
	panic(noTwin)
}
