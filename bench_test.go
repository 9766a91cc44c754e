// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, plus the design-choice ablations called out in DESIGN.md
// (kernel specialization, loop vectorization, communication coalescing,
// PGAS vs MPI). Run with:
//
//	go test -bench=. -benchmem
//
// The modeled figures (6-13) benchmark their full regeneration pipeline
// (trace measurement + platform model); Fig. 14 and the §5 studies are
// real measured workloads.
package svsim_test

import (
	"fmt"
	"testing"

	"svsim/internal/baseline"
	"svsim/internal/batch"
	"svsim/internal/circuit"
	"svsim/internal/core"
	"svsim/internal/figures"
	"svsim/internal/gate"
	"svsim/internal/ham"
	"svsim/internal/perfmodel"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
	"svsim/internal/statevec"
	"svsim/internal/vqa"
)

// --- Table 4: workload construction ---------------------------------

func BenchmarkTable4BuildSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, e := range qasmbench.All() {
			if c := e.Build(); c.NumGates() == 0 {
				b.Fatal("empty circuit")
			}
		}
	}
}

// --- Fig. 6: single-device execution of the medium suite -------------

func BenchmarkFig6SingleDevice(b *testing.B) {
	for _, e := range qasmbench.Medium() {
		c := e.Build().StripNonUnitary()
		b.Run(e.Name, func(b *testing.B) {
			backend := core.NewSingleDevice(core.Config{Style: statevec.Vectorized})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := backend.Run(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig6Model(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := figures.Fig6(); len(tab.Rows) != 8 {
			b.Fatal("fig6 rows")
		}
	}
}

// --- Fig. 7/8: CPU and Phi scale-up models ----------------------------

func BenchmarkFig7Model(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := figures.Fig7(); len(tab.Rows) != 8 {
			b.Fatal("fig7 rows")
		}
	}
}

func BenchmarkFig8Model(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := figures.Fig8(); len(tab.Rows) != 8 {
			b.Fatal("fig8 rows")
		}
	}
}

// --- Fig. 9-11: GPU scale-up (real distributed runs feed the model) ---

func BenchmarkFig9ScaleUpQFT15(b *testing.B) {
	e, _ := qasmbench.ByName("qft_n15")
	c := e.Compact().StripNonUnitary()
	for _, pes := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("gpus=%d", pes), func(b *testing.B) {
			var backend core.Backend
			if pes == 1 {
				backend = core.NewSingleDevice(core.Config{})
			} else {
				backend = core.NewScaleUp(core.Config{PEs: pes})
			}
			for i := 0; i < b.N; i++ {
				res, err := backend.Run(c)
				if err != nil {
					b.Fatal(err)
				}
				tr := perfmodel.TraceOf(res)
				_ = perfmodel.GPUScaleUpSeconds(tr, perfmodel.V100DGX2, pes)
			}
		})
	}
}

func BenchmarkFig10Model(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := figures.Fig10(); len(tab.Rows) != 8 {
			b.Fatal("fig10 rows")
		}
	}
}

func BenchmarkFig11Model(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := figures.Fig11(); len(tab.Rows) != 8 {
			b.Fatal("fig11 rows")
		}
	}
}

// --- Fig. 12/13: scale-out traffic estimation -------------------------

func BenchmarkFig12Model(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := figures.Fig12(); len(tab.Rows) != 8 {
			b.Fatal("fig12 rows")
		}
	}
}

func BenchmarkFig13Model(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := figures.Fig13(); len(tab.Rows) != 8 {
			b.Fatal("fig13 rows")
		}
	}
}

// --- Fig. 14: measured comparison against the baseline classes --------

func BenchmarkFig14Simulators(b *testing.B) {
	e, _ := qasmbench.ByName("qft_n15")
	c := e.Build().StripNonUnitary()
	b.Run("svsim-scalar", func(b *testing.B) {
		backend := core.NewSingleDevice(core.Config{Style: statevec.Scalar})
		for i := 0; i < b.N; i++ {
			if _, err := backend.Run(c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("svsim-vectorized", func(b *testing.B) {
		backend := core.NewSingleDevice(core.Config{Style: statevec.Vectorized})
		for i := 0; i < b.N; i++ {
			if _, err := backend.Run(c); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, sim := range []baseline.Simulator{
		baseline.NewGenericMatrix(), baseline.NewInterpreted(), baseline.NewComplexAoS(),
	} {
		sim := sim
		b.Run(sim.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 16/17 and the §5 studies -------------------------------------

func BenchmarkFig16VQETrial(b *testing.B) {
	// One variational trial: synthesize the ansatz and measure the energy
	// (the paper reports 1.23 ms per trial on a V100).
	theta := make([]float64, vqa.H2NumParams())
	backend := core.NewSingleDevice(core.Config{})
	h := ham.H2()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		theta[len(theta)-1] = float64(i%7) * 0.01
		c := vqa.H2Ansatz(theta)
		res, err := backend.Run(c)
		if err != nil {
			b.Fatal(err)
		}
		_ = h.Expectation(res.State)
	}
}

func BenchmarkFig17UCCSDCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if qasmbench.UCCSDGateCount(24) < 1e5 {
			b.Fatal("count")
		}
	}
}

func BenchmarkQNNTrainingStep(b *testing.B) {
	backend := core.NewSingleDevice(core.Config{})
	w := make([]float64, vqa.QNNNumWeights)
	feats := [4]float64{0.3, 1.2, 0.7, 2.1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w[0] = float64(i%13) * 0.05
		_ = vqa.QNNPredict(backend, feats, w)
	}
}

// --- Ablations ---------------------------------------------------------

// BenchmarkAblationSpecializedVsGeneric isolates the paper's specialized
// gate claim: the same T-gate stream through the specialized diagonal
// kernel versus the generic matrix path.
func BenchmarkAblationSpecializedVsGeneric(b *testing.B) {
	n := 16
	b.Run("specialized-T", func(b *testing.B) {
		s := statevec.New(n)
		for i := 0; i < b.N; i++ {
			s.ApplyT(i % n)
		}
	})
	b.Run("generic-T", func(b *testing.B) {
		s := statevec.New(n)
		u := gate.Unitary(gate.NewT(0))
		for i := 0; i < b.N; i++ {
			s.ApplyMatrix(u, []int{i % n})
		}
	})
}

// BenchmarkAblationLoopStyle isolates the Listing 2 vs Listing 3 loop
// shapes (the AVX512 structure without intrinsics).
func BenchmarkAblationLoopStyle(b *testing.B) {
	n := 18
	for _, style := range []struct {
		name string
		s    statevec.KernelStyle
	}{{"strided", statevec.Scalar}, {"blocked", statevec.Vectorized}} {
		b.Run(style.name, func(b *testing.B) {
			s := statevec.New(n)
			s.Style = style.s
			for i := 0; i < b.N; i++ {
				s.ApplyH(i % n)
			}
		})
	}
}

// BenchmarkAblationCoalescing compares element-wise one-sided access with
// the warp-coalesced bulk path on a communication-heavy circuit.
func BenchmarkAblationCoalescing(b *testing.B) {
	c := circuit.New("comm-heavy", 14)
	for i := 0; i < 10; i++ {
		c.H(13)
		c.CX(13, 0)
	}
	for _, coal := range []bool{false, true} {
		name := "element"
		if coal {
			name = "coalesced"
		}
		b.Run(name, func(b *testing.B) {
			backend := core.NewScaleOut(core.Config{PEs: 4, Coalesced: coal})
			for i := 0; i < b.N; i++ {
				if _, err := backend.Run(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPGASvsMPI runs the same distributed workload through
// the one-sided backend and the pack-exchange baseline.
func BenchmarkAblationPGASvsMPI(b *testing.B) {
	e, _ := qasmbench.ByName("bv_n14")
	c := e.Compact().StripNonUnitary()
	b.Run("pgas", func(b *testing.B) {
		backend := core.NewScaleOut(core.Config{PEs: 4, Coalesced: true})
		for i := 0; i < b.N; i++ {
			if _, err := backend.Run(c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mpi", func(b *testing.B) {
		backend := core.NewMPI(core.Config{PEs: 4})
		for i := 0; i < b.N; i++ {
			if _, err := backend.Run(c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHeadlineModel regenerates the paper's flagship 24-qubit
// estimate (trace synthesis over the million-gate UCCSD circuit).
func BenchmarkHeadlineModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := figures.Headline(); len(tab.Rows) == 0 {
			b.Fatal("headline")
		}
	}
}

// BenchmarkAblationFusion measures the gate-fusion pass end to end on the
// rotation-heavy DNN workload (where runs of four rotations per qubit
// collapse into one u3 each).
func BenchmarkAblationFusion(b *testing.B) {
	c := qasmbench.DNN(14, 24)
	for _, fuse := range []bool{false, true} {
		name := "plain"
		if fuse {
			name = "fused"
		}
		b.Run(name, func(b *testing.B) {
			backend := core.NewSingleDevice(core.Config{Fuse: fuse})
			for i := 0; i < b.N; i++ {
				if _, err := backend.Run(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchedVQESweep exercises the batched variational runner (the
// paper's future-work item) over a 16-point parameter sweep.
func BenchmarkBatchedVQESweep(b *testing.B) {
	h := ham.H2()
	params := make([][]float64, 16)
	for i := range params {
		p := make([]float64, vqa.H2NumParams())
		p[len(p)-1] = -0.4 + 0.05*float64(i)
		params[i] = p
	}
	runner := batch.New(4, core.Config{})
	for i := 0; i < b.N; i++ {
		if _, err := runner.EnergySweep(h, vqa.H2Ansatz, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShots measures the repeated-sampling path the paper's NISQ
// validation workflow depends on.
func BenchmarkShots(b *testing.B) {
	e, _ := qasmbench.ByName("bv_n14")
	c := e.Build()
	c.MeasureAll()
	backend := core.NewSingleDevice(core.Config{})
	for i := 0; i < b.N; i++ {
		if _, err := core.RunShots(backend, c, 1024, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThreadedBackend measures the shared-memory Listing-3 engine at
// several worker counts (on a multi-core host the larger counts win; the
// figure-7 model prices the same structure for the paper's platforms).
func BenchmarkThreadedBackend(b *testing.B) {
	e, _ := qasmbench.ByName("qft_n15")
	c := e.Build().StripNonUnitary()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			backend := core.NewThreaded(core.Config{PEs: workers})
			for i := 0; i < b.N; i++ {
				if _, err := backend.Run(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRemapVsPackExchange compares the qubit-remapping
// strategy (JUQCS-style, paper §6) with the pack-exchange baseline on a
// locality-friendly workload.
func BenchmarkAblationRemapVsPackExchange(b *testing.B) {
	c := circuit.New("sticky", 14)
	for i := 0; i < 12; i++ {
		c.H(13)
		c.RX(0.2, 13)
		c.CX(13, 0)
	}
	b.Run("remap", func(b *testing.B) {
		sim := core.NewMPI(core.Config{PEs: 4, Sched: sched.Lazy})
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pack-exchange", func(b *testing.B) {
		sim := core.NewMPI(core.Config{PEs: 4})
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(c); err != nil {
				b.Fatal(err)
			}
		}
	})
}
