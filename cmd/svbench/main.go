// Command svbench regenerates the paper's evaluation: every table and
// figure of §4-§5 is reproduced as a text table (modeled figures from
// measured traces, Fig. 14 and the §5 case studies measured on this
// host). Run with -exp all to reproduce the full evaluation, or name a
// single experiment; -exp list names them.
//
// The deterministic counters of single runs (kernel traffic, remote
// bytes, messages, barriers) are printed by svsim and pinned exactly by
// the root package's TestCountersPinned.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"svsim/internal/figures"
)

var experiments = []struct {
	name string
	desc string
	run  func() *figures.Table
}{
	{"table3", "evaluation platforms", figures.Table3},
	{"table4", "workload suite vs paper counts", figures.Table4},
	{"fig6", "single-device latency across platforms", figures.Fig6},
	{"fig6-abs", "single-device absolute latency (ms)", figures.Fig6Absolute},
	{"fig7", "CPU scale-up (P8276M, AVX512)", figures.Fig7},
	{"fig8", "Xeon Phi scale-up", figures.Fig8},
	{"fig9", "V100 DGX-2 scale-up", figures.Fig9},
	{"fig10", "DGX-A100 scale-up", figures.Fig10},
	{"fig11", "MI100 workstation scale-up", figures.Fig11},
	{"fig12", "Summit Power9 OpenSHMEM scale-out", figures.Fig12},
	{"fig13", "Summit V100 NVSHMEM scale-out", figures.Fig13},
	{"fig14", "measured comparison vs baseline simulators", figures.Fig14},
	{"fig16", "H2 VQE energy trajectory (measured)", figures.Fig16},
	{"fig17", "VQE-UCCSD gates vs qubits", figures.Fig17},
	{"qnn", "power-grid QNN case study (measured)", figures.QNNStudy},
	{"headline", "24-qubit VQE on 16 GPUs (modeled)", figures.Headline},
	{"comm", "PGAS vs MPI communication structure", func() *figures.Table { return figures.CommComparison(8) }},
	{"mem", "state-vector memory wall (2.1)", figures.MemTable},
}

func main() {
	exp := flag.String("exp", "all", "experiment id or 'all' or 'list'")
	format := flag.String("format", "text", "output format: text | csv")
	flag.Parse()

	render := func(t *figures.Table) string {
		if *format == "csv" {
			return t.CSV()
		}
		return t.Format()
	}

	switch *exp {
	case "list":
		for _, e := range experiments {
			fmt.Printf("%-9s %s\n", e.name, e.desc)
		}
		return
	case "all":
		for _, e := range experiments {
			fmt.Println(render(e.run()))
		}
		return
	}
	for _, e := range experiments {
		if e.name == *exp {
			fmt.Println(render(e.run()))
			return
		}
	}
	fmt.Fprintf(os.Stderr, "svbench: unknown experiment %q; known: %s\n",
		*exp, strings.Join(names(), ", "))
	os.Exit(1)
}

func names() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.name
	}
	return out
}
