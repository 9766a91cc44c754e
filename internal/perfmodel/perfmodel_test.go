package perfmodel

import (
	"math"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/core"
	"svsim/internal/gate"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
)

func TestEstimateCommLazyIsExact(t *testing.T) {
	// The lazy-schedule traffic model is plan-derived, so it must equal
	// the PGAS lazy executor's measured one-sided messages, remote bytes
	// and barriers exactly (remaps in the classical prefix priced at
	// zero, two synchronizations per PE per remap past it).
	for _, name := range []string{"qft_n15", "bv_n14", "multiplier"} {
		e, err := qasmbench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := e.Build().StripNonUnitary()
		for _, pes := range []int{4, 8, 16} {
			res, err := core.NewScaleOut(core.Config{PEs: pes, Sched: sched.Lazy}).Run(c)
			if err != nil {
				t.Fatal(err)
			}
			est, err := EstimateCommLazy(c, pes)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range []struct {
				what           string
				model, measure int64
			}{
				{"remote messages", est.RemoteMsgs, res.Comm.RemoteMessages()},
				{"remote bytes", est.RemoteBytes, res.Comm.RemoteBytes},
				{"barriers", est.Barriers, res.Comm.Barriers},
			} {
				if f.model != f.measure {
					t.Fatalf("%s @%d PEs: estimated %d %s, measured %d", name, pes, f.model, f.what, f.measure)
				}
			}
		}
	}
}

// perGate is c behind one barrier. The analytic models price every gate,
// as the paper's simulator runs them; the barrier ends the classical
// prefix a fresh run would fold, so the measured run executes every gate
// of c too (multiply and multiplier in compact form are classical end to
// end and would otherwise do no work).
func perGate(c *circuit.Circuit) *circuit.Circuit {
	r := *c
	r.Ops = append([]circuit.Op{{G: gate.NewBarrier()}}, c.Ops...)
	return &r
}

func TestTraceEstimateMatchesMeasuredExactly(t *testing.T) {
	// For unitary circuits the analytic trace must equal the kernel
	// counters bit for bit (the estimate mirrors the kernels' stats).
	for _, name := range []string{"bv_n14", "cc_n12", "qft_n15", "multiply", "sat"} {
		e, err := qasmbench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		circ := e.Build().StripNonUnitary()
		res, err := core.NewSingleDevice(core.Config{}).Run(perGate(circ))
		if err != nil {
			t.Fatal(err)
		}
		got := TraceEstimate(circ)
		want := TraceOf(res)
		if got.Gates != want.Gates || got.Amps != want.Amps || got.Bytes != want.Bytes {
			t.Fatalf("%s: estimate %+v, measured %+v", name, got, want)
		}
		// And the compact (compound-gate) form.
		circ = e.Compact().StripNonUnitary()
		res, err = core.NewSingleDevice(core.Config{}).Run(perGate(circ))
		if err != nil {
			t.Fatal(err)
		}
		got = TraceEstimate(circ)
		want = TraceOf(res)
		if got.Gates != want.Gates || got.Amps != want.Amps {
			t.Fatalf("%s compact: estimate %+v, measured %+v", name, got, want)
		}
	}
}

func TestEstimateCommTracksMeasurement(t *testing.T) {
	// The analytic one-sided traffic model must agree with the real PGAS
	// accounting within a factor of 2 (the locality fraction is
	// approximated; everything else is exact).
	for _, name := range []string{"bv_n14", "qft_n15", "multiplier", "cc_n12"} {
		e, err := qasmbench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := e.Compact().StripNonUnitary()
		for _, pes := range []int{4, 8} {
			res, err := core.NewScaleOut(core.Config{PEs: pes}).Run(perGate(c))
			if err != nil {
				t.Fatal(err)
			}
			est := EstimateComm(c, pes)
			meas := res.Comm.RemoteBytes
			if meas == 0 && est.RemoteBytes == 0 {
				continue
			}
			if meas == 0 || est.RemoteBytes == 0 {
				t.Fatalf("%s @%d: estimate %d vs measured %d (one is zero)",
					name, pes, est.RemoteBytes, meas)
			}
			ratio := float64(est.RemoteBytes) / float64(meas)
			if ratio < 0.4 || ratio > 2.5 {
				t.Fatalf("%s @%d PEs: estimated %d bytes vs measured %d (ratio %.2f)",
					name, pes, est.RemoteBytes, meas, ratio)
			}
		}
	}
}

func TestEstimateCommZeroCases(t *testing.T) {
	e, _ := qasmbench.ByName("qf21")
	c := e.Compact().StripNonUnitary()
	// qf21's communication-relevant gates are all diagonal (cu1) or on low
	// qubits, so at 8 PEs it is communication-free.
	if est := EstimateComm(c, 8); est.RemoteBytes != 0 {
		t.Fatalf("qf21 @8 PEs: estimated %d remote bytes, want 0", est.RemoteBytes)
	}
	if est := EstimateComm(c, 1); est.RemoteBytes != 0 || est.Barriers != 0 {
		t.Fatal("single PE must be communication-free")
	}
}

func TestSingleDeviceModelBasics(t *testing.T) {
	tr := Trace{Gates: 100, Amps: 1 << 20, Bytes: 16 << 20, StateBytes: 1 << 19}
	for _, p := range Fig6Platforms() {
		s := p.SingleDeviceSeconds(tr)
		if s <= 0 || math.IsNaN(s) {
			t.Fatalf("%s: latency %g", p.Name, s)
		}
		// Doubling the work must not decrease latency.
		tr2 := tr
		tr2.Amps *= 2
		tr2.Bytes *= 2
		tr2.Gates *= 2
		if p.SingleDeviceSeconds(tr2) <= s {
			t.Fatalf("%s: latency not monotone in work", p.Name)
		}
	}
	// AVX platform must be faster than its scalar twin on big states.
	big := Trace{Gates: 100, Amps: 1 << 22, Bytes: 1 << 26, StateBytes: 1 << 22}
	if IntelP8276AVX.SingleDeviceSeconds(big) >= IntelP8276.SingleDeviceSeconds(big) {
		t.Fatal("AVX512 model not faster than scalar")
	}
}

func TestCPUScaleUpModelShape(t *testing.T) {
	// n=15-like trace: parallelization must help; tiny traces must not.
	big := Trace{Gates: 500, Amps: 500 << 14, Bytes: 500 << 18, StateBytes: 1 << 19}
	t1 := CPUScaleUpSeconds(big, IntelP8276AVX, 1)
	t32 := CPUScaleUpSeconds(big, IntelP8276AVX, 32)
	t256 := CPUScaleUpSeconds(big, IntelP8276AVX, 256)
	if t32 >= t1/2 {
		t.Fatalf("32 cores give only %.2fx", t1/t32)
	}
	if t256 <= t32 {
		t.Fatal("QPI contention missing beyond 128 cores")
	}
	small := Trace{Gates: 500, Amps: 500 << 10, Bytes: 500 << 14, StateBytes: 1 << 15}
	if CPUScaleUpSeconds(small, IntelP8276AVX, 16) <= CPUScaleUpSeconds(small, IntelP8276AVX, 1) {
		t.Fatal("small problems should not benefit from many cores")
	}
}

func TestGPUScaleUpModelShape(t *testing.T) {
	tr := Trace{Gates: 120, Amps: 1 << 21, Bytes: 1 << 25, StateBytes: 1 << 19}
	t1 := GPUScaleUpSeconds(tr, V100DGX2, 1)
	tr16 := tr
	tr16.RemoteBytes = tr.Bytes / 8
	t16 := GPUScaleUpSeconds(tr16, V100DGX2, 16)
	if t16 >= t1 {
		t.Fatal("16 GPUs slower than 1 on a bandwidth-bound trace")
	}
	// MI100's dispatch penalty keeps scaling modest.
	m1 := GPUScaleUpSeconds(tr, MI100Node, 1)
	m4 := GPUScaleUpSeconds(tr16, MI100Node, 4)
	if sp := m1 / m4; sp < 1.2 || sp > 3.5 {
		t.Fatalf("MI100 4-GPU speedup %.2fx not 'linear and modest'", sp)
	}
}

func TestScaleOutModelShape(t *testing.T) {
	e, _ := qasmbench.ByName("qft_n20")
	c := e.Compact().StripNonUnitary()
	tr := TraceEstimate(c)
	t32 := ScaleOutSeconds(tr, EstimateComm(c, 32), SummitCPU, 32)
	t1024 := ScaleOutSeconds(tr, EstimateComm(c, 1024), SummitCPU, 1024)
	red := t32 / t1024
	if red < 1.2 || red > 5 {
		t.Fatalf("Fig12 total reduction %.2fx outside the paper's communication-bound band", red)
	}
	g4 := ScaleOutSeconds(tr, EstimateComm(c, 4), SummitGPU, 4)
	g1024 := ScaleOutSeconds(tr, EstimateComm(c, 1024), SummitGPU, 1024)
	if g4/g1024 < 3 {
		t.Fatalf("Fig13 NVSHMEM scaling only %.2fx", g4/g1024)
	}
}

func TestArithmeticIntensityBelowHalf(t *testing.T) {
	// The paper's roofline premise: QC simulation has arithmetic intensity
	// below 1/2 FLOP/byte on every suite workload.
	for _, e := range qasmbench.All() {
		c := e.Build().StripNonUnitary()
		res, err := core.NewSingleDevice(core.Config{}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		tr := TraceOf(res)
		ai := tr.ArithmeticIntensity()
		if ai <= 0 || ai >= 0.5 {
			t.Errorf("%s: arithmetic intensity %.3f outside (0, 0.5)", e.Name, ai)
		}
	}
}
