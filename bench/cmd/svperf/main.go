// Command svperf runs one workload of the repo's wall-clock benchmark in
// one process, or compares two result sets.
//
//	svperf -workload qft22_single -seed 1 -seconds 10 -trace 0
//	svperf -workload svc_mixed -seed 1 -seconds 10 -trace 1 -spans spans.json
//	svperf -compare A.jsonl B.jsonl
//
// A run prints a host record, every metric as "name value unit", notes
// that are not metrics (sample counts, verify_s, fail_ratio), and as its
// last line one JSON object {correct, attempted, failed, metrics}. With
// -trace 0 the metrics are the end-to-end ones, with -trace 1 the
// per-layer ones. Exit codes: 0 done, 1 run error or compare violation,
// 2 usage, 3 watchdog.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"svsim/bench/perf"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are made from")
		seconds  = flag.Float64("seconds", 10, "how long the timed reps run")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		spans    = flag.String("spans", "", "traced run: also write the recorded spans to this file as JSON")
		out      = flag.String("out", "", "append the result as one JSON line to this result set")
		workDir  = flag.String("workdir", "bench/out", "directory for the run's temporary files")
		timeout  = flag.Duration("timeout", 120*time.Second, "watchdog: remove the temporary files and exit 3 after this long")
		compare  = flag.Bool("compare", false, "compare two result sets given as arguments against the bounds in -spec")
		specPath = flag.String("spec", "BENCHMARK.json", "the benchmark definition -compare takes its bounds from")
	)
	flag.Parse()
	// The service defaults, the CLI defaults and this host agree on two.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	if *compare {
		os.Exit(runCompare(*specPath, flag.Args()))
	}

	o := perf.Options{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Size: perf.Full, WorkDir: *workDir, Timeout: *timeout}
	if *trace != 0 && *trace != 1 {
		usage("-trace must be 0 or 1")
	}
	var names []string
	known := false
	for _, w := range perf.Workloads {
		names = append(names, w.Name)
		known = known || w.Name == *workload
	}
	if !known {
		usage(fmt.Sprintf("unknown workload %q; the workloads are %s", *workload, strings.Join(names, ", ")))
	}

	for _, line := range perf.HostRecord(o) {
		fmt.Println(line)
	}
	rep, err := perf.Run(o)
	if err != nil {
		fail(err)
	}
	if *spans != "" && o.Trace {
		data, err := json.Marshal(rep.Spans)
		if err == nil {
			err = os.WriteFile(*spans, data, 0o644)
		}
		if err != nil {
			fail(err)
		}
	}

	metrics := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		metrics = append(metrics, name)
	}
	sort.Strings(metrics)
	for _, name := range metrics {
		fmt.Printf("%s %v %s\n", name, rep.Metrics[name].Value, rep.Metrics[name].Unit)
	}
	for _, note := range rep.Notes {
		fmt.Println(note)
	}
	if *out != "" {
		if err := perf.AppendRecord(*out, perf.Record{Workload: o.Workload, Seed: o.Seed, Trace: o.Trace, Result: rep.Result}); err != nil {
			fail(err)
		}
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func runCompare(specPath string, args []string) int {
	if len(args) != 2 {
		usage("-compare takes two result sets: svperf -compare A.jsonl B.jsonl")
	}
	spec, err := perf.LoadSpec(specPath)
	if err != nil {
		fail(err)
	}
	a, err := perf.LoadRecords(args[0])
	if err != nil {
		fail(err)
	}
	b, err := perf.LoadRecords(args[1])
	if err != nil {
		fail(err)
	}
	violations, err := perf.Compare(spec, a, b, os.Stdout)
	if err != nil {
		fail(err)
	}
	if violations > 0 {
		fmt.Printf("%d violation(s)\n", violations)
		return 1
	}
	return 0
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "svperf:", msg)
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "svperf:", err)
	os.Exit(1)
}
