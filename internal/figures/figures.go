// Package figures regenerates every table and figure of the paper's
// evaluation (§4-§5) as structured text tables: functional simulations
// produce measured traces (gate counts, amplitude traffic, one-sided
// remote bytes/messages), and the perfmodel platform models turn them
// into the latency series the paper plots. Fig. 14 and the §5 studies are
// measured wall-clock on this host. cmd/svbench prints these tables;
// bench_test.go exercises them as benchmarks; the package tests assert
// the paper's qualitative claims for each figure.
package figures

import (
	"fmt"
	"strings"

	"svsim/internal/circuit"
	"svsim/internal/core"
	"svsim/internal/gate"
	"svsim/internal/perfmodel"
	"svsim/internal/qasmbench"
)

// Table is one reproduced figure or table.
type Table struct {
	ID      string // "fig6", "table4", ...
	Title   string
	Columns []string // first column is the row label
	Rows    []Row
	Notes   string
}

// Row is one line of a Table.
type Row struct {
	Label  string
	Values []float64
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	cells := make([][]string, len(t.Rows)+1)
	cells[0] = t.Columns
	for i, r := range t.Rows {
		row := make([]string, len(r.Values)+1)
		row[0] = r.Label
		for j, v := range r.Values {
			row[j+1] = formatVal(v)
		}
		cells[i+1] = row
	}
	for _, row := range cells {
		for j, c := range row {
			if j < len(widths) && len(c) > widths[j] {
				widths[j] = len(c)
			}
		}
	}
	for _, row := range cells {
		for j, c := range row {
			if j > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if j < len(widths) {
				pad = widths[j] - len(c)
			}
			if j == 0 {
				b.WriteString(c + strings.Repeat(" ", pad))
			} else {
				b.WriteString(strings.Repeat(" ", pad) + c)
			}
		}
		b.WriteByte('\n')
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "-- %s\n", t.Notes)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (header + rows).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(r.Label)
		for _, v := range r.Values {
			b.WriteByte(',')
			b.WriteString(formatVal(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func formatVal(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1e6 || v < 1e-3:
		return fmt.Sprintf("%.3e", v)
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// runTrace executes a circuit on the single-device backend and returns the
// measured trace.
func runTrace(c *circuit.Circuit) perfmodel.Trace {
	res, err := core.NewSingleDevice(core.Config{TileBits: c.NumQubits}).Run(perGate(c))
	if err != nil {
		panic(err)
	}
	return perfmodel.TraceOf(res)
}

// distTrace executes a circuit on the scale-up backend at p devices and
// returns the trace including measured remote traffic.
func distTrace(c *circuit.Circuit, p int) perfmodel.Trace {
	if p <= 1 {
		return runTrace(c)
	}
	res, err := core.NewScaleUp(core.Config{PEs: p, TileBits: c.NumQubits}).Run(perGate(c))
	if err != nil {
		panic(err)
	}
	return perfmodel.TraceOf(res)
}

// perGate is the unitary part of c behind one barrier. The paper's
// simulator executes every gate of the stream, one sweep each, so the
// figures measure runs that do too: the barrier ends the classical prefix
// a fresh run would fold, which would leave the all-classical arithmetic
// circuits (multiply, multiplier) with no work at all, and the runs ask
// for a tile as large as the state (TileBits = n), which leaves every
// gate its own sweep.
func perGate(c *circuit.Circuit) *circuit.Circuit {
	u := c.StripNonUnitary()
	u.Ops = append([]circuit.Op{{G: gate.NewBarrier()}}, u.Ops...)
	return u
}

// Table3 renders the evaluation-platform summary.
func Table3() *Table {
	t := &Table{
		ID:      "table3",
		Title:   "Evaluation platforms (modeled; constants in internal/perfmodel)",
		Columns: []string{"platform", "class", "amp-ns", "vec-x", "dram-GB/s", "gate-ns", "dev-GB/s"},
	}
	for _, p := range perfmodel.Fig6Platforms() {
		t.Rows = append(t.Rows, Row{Label: p.Name, Values: []float64{
			float64(p.Class), p.AmpNs, p.VectorFactor, p.DRAMGBps, p.GateNs, p.DeviceGBps,
		}})
	}
	return t
}

// Table4 regenerates the workload summary: generated vs paper gate/CX
// counts.
func Table4() *Table {
	t := &Table{
		ID:      "table4",
		Title:   "Quantum routines evaluated for SV-Sim (generated vs paper)",
		Columns: []string{"routine", "qubits", "gates", "cx", "paper-gates", "paper-cx"},
	}
	for _, e := range qasmbench.All() {
		if e.PaperGates == 0 {
			continue // extended entries are not part of Table 4
		}
		c := e.Build()
		t.Rows = append(t.Rows, Row{Label: e.Name, Values: []float64{
			float64(e.Qubits), float64(c.NumGates()), float64(countCX(c)),
			float64(e.PaperGates), float64(e.PaperCX),
		}})
	}
	return t
}

func countCX(c *circuit.Circuit) int {
	n := 0
	for i := range c.Ops {
		if c.Ops[i].G.Kind.String() == "cx" {
			n++
		}
	}
	return n
}

// MemTable reports the paper's state-vector memory law (16 x 2^n bytes,
// §2.1) and which evaluated system's per-device memory holds each size —
// the capacity wall that forces the distributed backends.
func MemTable() *Table {
	t := &Table{
		ID:      "mem",
		Title:   "State-vector memory (16 x 2^n bytes, paper 2.1) vs device capacities",
		Columns: []string{"qubits", "state-GiB", "fits-V100-32GiB", "fits-A100-40GiB", "fits-node-512GiB"},
	}
	for n := 11; n <= 36; n++ {
		gib := 16 * float64(uint64(1)<<uint(n)) / (1 << 30)
		t.Rows = append(t.Rows, Row{Label: fmtInt(n), Values: []float64{
			gib, boolVal(gib <= 32), boolVal(gib <= 40), boolVal(gib <= 512),
		}})
	}
	t.Notes = "beyond a device's capacity the state must be partitioned -> the paper's scale-up/scale-out designs"
	return t
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
