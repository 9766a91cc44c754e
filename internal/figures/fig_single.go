package figures

import (
	"slices"
	"time"

	"svsim/internal/baseline"
	"svsim/internal/core"
	"svsim/internal/perfmodel"
	"svsim/internal/qasmbench"
	"svsim/internal/statevec"
)

// Fig6 regenerates the single-device comparison: modeled execution latency
// of the 8 medium circuits on each Table 3 platform, normalized to the
// AMD EPYC 7742 column exactly as in the paper.
func Fig6() *Table {
	plats := perfmodel.Fig6Platforms()
	t := &Table{
		ID:    "fig6",
		Title: "Single-device relative latency (vs AMD EPYC7742; modeled from measured traces)",
		Notes: "paper claims: CPUs win at n=11-12; V100/A100 >10x at n=13-15; AVX512 ~2x; A100 ~ V100; MI100 suboptimal",
	}
	t.Columns = append(t.Columns, "circuit")
	for _, p := range plats {
		t.Columns = append(t.Columns, p.Name)
	}
	for _, e := range qasmbench.Medium() {
		tr := runTrace(e.Build())
		base := perfmodel.EPYC7742.SingleDeviceSeconds(tr)
		row := Row{Label: e.Name}
		for _, p := range plats {
			row.Values = append(row.Values, p.SingleDeviceSeconds(tr)/base)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig6Absolute reports the modeled absolute latencies in milliseconds
// (the paper annotates absolute latency in ms on the same figure).
func Fig6Absolute() *Table {
	plats := perfmodel.Fig6Platforms()
	t := &Table{
		ID:      "fig6-abs",
		Title:   "Single-device absolute modeled latency (ms)",
		Columns: []string{"circuit"},
	}
	for _, p := range plats {
		t.Columns = append(t.Columns, p.Name)
	}
	for _, e := range qasmbench.Medium() {
		tr := runTrace(e.Build())
		row := Row{Label: e.Name}
		for _, p := range plats {
			row.Values = append(row.Values, p.SingleDeviceSeconds(tr)*1e3)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig14 measures the simulation-performance comparison on this host:
// SV-Sim's specialized kernels (scalar and vectorized loop shapes) against
// the three comparator classes standing in for the Qiskit/Cirq/Q# default
// simulators. Values are wall-clock milliseconds; the paper's claim is
// ~10x average advantage for SV-Sim.
func Fig14() *Table {
	t := &Table{
		ID:    "fig14",
		Title: "Measured simulation latency on this host (ms)",
		Columns: []string{"circuit", "svsim", "svsim-vec",
			"generic-matrix(Aer-class)", "interpreted(Cirq-class)", "complex-aos(QDK-class)"},
		Notes: "paper claims ~10x average advantage for SV-Sim over the default simulators",
	}
	sims := []baseline.Simulator{
		baseline.NewGenericMatrix(), baseline.NewInterpreted(), baseline.NewComplexAoS(),
	}
	for _, e := range qasmbench.Medium() {
		c := e.Build().StripNonUnitary()
		row := Row{Label: e.Name}
		for _, style := range []statevec.KernelStyle{statevec.Scalar, statevec.Vectorized} {
			b := core.NewSingleDevice(core.Config{Style: style})
			row.Values = append(row.Values, medianRunMs(3, func() {
				if _, err := b.Run(c); err != nil {
					panic(err)
				}
			}))
		}
		for _, sim := range sims {
			sim := sim
			row.Values = append(row.Values, medianRunMs(3, func() {
				if _, err := sim.Run(c); err != nil {
					panic(err)
				}
			}))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// medianRunMs runs f reps times and returns the median duration in ms
// (of an even number of reps, the upper of the two middle ones).
func medianRunMs(reps int, f func()) float64 {
	ds := make([]time.Duration, reps)
	for i := range ds {
		start := time.Now()
		f()
		ds[i] = time.Since(start)
	}
	slices.Sort(ds)
	return float64(ds[reps/2].Nanoseconds()) / 1e6
}
