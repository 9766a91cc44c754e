package perf

import (
	"syscall"
	"time"
	"unsafe"
)

// Host-speed adjustment.
//
// The host this benchmark was sized on is a small VM on a shared machine,
// and it has phases, minutes long, in which the same work takes 10-70 %
// longer: a neighbour takes memory bandwidth (the bandwidth-bound
// qft22_single moves most), or the hypervisor takes CPU time (everything
// moves). A phase covers whole runs, so neither more reps nor a longer run
// averages it out, and ten runs of one commit spread by more than any
// useful regression bound.
//
// So every timed region (a rep, a set-up) is bracketed by two probes of the
// host's speed at that moment, fixed pieces of the benchmark's own code
// that no change to the program can touch: an in-cache arithmetic loop and
// sweeps of butterflies over a 64 MiB state-sized array. The region's time
// is divided by the host factor, the slowdown of the probes against the
// nominal times below, the two probes weighted by the workload's memShare. A
// timing therefore reads as seconds on this host at its nominal speed. The
// raw times and the factors are printed next to the metrics.

// The probes' times on this host (2 vCPUs, Xeon @ 2.1 GHz) in a calm phase,
// in seconds. They only fix the scale of the adjusted times; both sides of
// a comparison are divided by the same constants.
const (
	cpuNominal = 0.0422
	memNominal = 0.1050
)

// cpuProbePasses is how often one part of the CPU probe sweeps its 8 KiB
// buffer.
const cpuProbePasses = 30000

// calibrator owns the probes' buffers. They live outside the Go heap, so
// that the garbage collector paces the workload as it would without them,
// and their size is taken off peak_rss_mb.
type calibrator struct {
	region []byte
	re, im []float64 // the memory probe's array: 2^qubits amplitudes
	small  []float64 // the CPU probe's: 8 KiB
}

// newCalibrator maps and touches the buffers.
func newCalibrator(qubits int) (*calibrator, error) {
	n := 1 << qubits
	const smallLen = 1024
	size := 8 * (2*n + smallLen)
	region, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	all := unsafe.Slice((*float64)(unsafe.Pointer(&region[0])), size/8)
	c := &calibrator{region: region, re: all[:n], im: all[n : 2*n], small: all[2*n:]}
	for i := range c.re {
		c.re[i], c.im[i] = 1, 0.5
	}
	return c, nil
}

func (c *calibrator) close() { syscall.Munmap(c.region) } //nolint:errcheck // the process is about to end

// residentMiB is what the buffers add to the process's resident set.
func (c *calibrator) residentMiB() float64 { return float64(len(c.region)) / (1 << 20) }

// The probes run on one thread whatever the workload: with one on each of
// the two Ps, whatever the Go runtime does in the background after a rep
// (sweeping, returning memory) delays one of them, and the probe reads 10 %
// slower than the host is.

// A probe is three equal parts and reads as three times their median, so
// that a part the hypervisor interrupts does not count: the probes are
// after the host's speed over minutes, not its hiccups.
func threeParts(part func()) float64 {
	var d [3]float64
	for i := range d {
		t0 := time.Now()
		part()
		d[i] = time.Since(t0).Seconds()
	}
	return 3 * median(d[:])
}

// cpuProbe is arithmetic on a buffer that stays in L1.
func (c *calibrator) cpuProbe() float64 {
	s := c.small
	return threeParts(func() {
		for r := 0; r < cpuProbePasses; r++ {
			for i := range s {
				s[i] = s[i]*0.999 + 0.001
			}
		}
	})
}

// memProbe sweeps Hadamard butterflies over the array with the partner
// half the array away, 2^11 away and adjacent: the access patterns of the
// per-gate kernels on a high, a middle and the lowest qubit.
func (c *calibrator) memProbe() float64 {
	n := len(c.re)
	return threeParts(func() {
		for _, stride := range []int{n / 2, min(1<<11, n/2), 1} {
			butterflies(c.re, c.im, stride)
		}
	})
}

func butterflies(re, im []float64, stride int) {
	const h = 0.7071067811865476
	for base := 0; base+2*stride <= len(re); base += 2 * stride {
		r0, r1 := re[base:base+stride], re[base+stride:base+2*stride]
		i0, i1 := im[base:base+stride], im[base+stride:base+2*stride]
		for k := range r0 {
			a, b, c, d := r0[k], r1[k], i0[k], i1[k]
			r0[k], r1[k] = (a+b)*h, (a-b)*h
			i0[k], i1[k] = (c+d)*h, (c-d)*h
		}
	}
}

// factor probes the host now and returns its slowdown for a workload
// that spends memShare of its time waiting for memory and the rest
// computing: 1 at nominal speed, 1.2 when the probes take 20 % longer. A
// probe of no weight is not run.
func (c *calibrator) factor(memShare float64) float64 {
	var f float64
	if memShare < 1 {
		f += (1 - memShare) * c.cpuProbe() / cpuNominal
	}
	if memShare > 0 {
		f += memShare * c.memProbe() / memNominal
	}
	return f
}
