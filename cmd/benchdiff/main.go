// Command benchdiff compares two svbench -json record files and fails
// (exit 1) when the current run regresses against the committed baseline
// beyond the allowed tolerances. It is the perf-trajectory gate run by
// CI's bench-trajectory job:
//
//	svbench -json BENCH_current.json
//	benchdiff -baseline BENCH_baseline.json -current BENCH_current.json
//
// Only deterministic counters are gated — remote, inter-node and
// state-vector bytes, state-vector sweeps, fused-gate and remap counts,
// plan-cache hits. Wall time (elapsed_ns,
// compile_ns) is noisy on shared runners and tripped on untouched code:
// it stays a series on the -html page, and the clock is gated by paired
// svperf runs instead (CI's perf-pair job).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// record mirrors the svbench benchRecord fields benchdiff cares about.
// Unknown fields are ignored so the schema can grow compatibly.
type record struct {
	Schema          string `json:"schema"`
	GitCommit       string `json:"git_commit,omitempty"`
	UnixNS          int64  `json:"unix_ns,omitempty"`
	Workload        string `json:"workload"`
	Backend         string `json:"backend"`
	PEs             int    `json:"pes"`
	Coalesced       bool   `json:"coalesced,omitempty"`
	Fuse            bool   `json:"fuse,omitempty"`
	Sched           string `json:"sched,omitempty"`
	Tile            bool   `json:"tile,omitempty"`
	PPN             int    `json:"ppn,omitempty"`
	ElapsedNS       int64  `json:"elapsed_ns"`
	BytesTouched    int64  `json:"bytes_touched"`
	Sweeps          int64  `json:"sweeps,omitempty"`
	CommRemoteBytes int64  `json:"comm_remote_bytes"`
	IntraBytes      int64  `json:"intra_bytes,omitempty"`
	InterBytes      int64  `json:"inter_bytes,omitempty"`
	Barriers        int64  `json:"barriers"`
	FusedGates      int64  `json:"fused_gates,omitempty"`
	Remaps          int64  `json:"remaps,omitempty"`
	CompileNS       int64  `json:"compile_ns,omitempty"`
	BindNS          int64  `json:"bind_ns,omitempty"`
	PlanCacheHits   int64  `json:"plan_cache_hits,omitempty"`
	PlanCacheMisses int64  `json:"plan_cache_misses,omitempty"`
}

// key identifies a bench configuration across runs. The "/tile" and
// "/ppn=N" suffixes appear only on tiled and topology records, so keys
// in older baseline files are unchanged.
func (r *record) key() string {
	sched := r.Sched
	if sched == "" {
		sched = "naive"
	}
	k := fmt.Sprintf("%s/%s/pes=%d/coalesced=%v/fuse=%v/sched=%s",
		r.Workload, r.Backend, r.PEs, r.Coalesced, r.Fuse, sched)
	if r.Tile {
		k += "/tile"
	}
	if r.PPN > 0 {
		k += fmt.Sprintf("/ppn=%d", r.PPN)
	}
	return k
}

// regression describes one comparison that exceeded its tolerance.
type regression struct {
	Key    string
	Metric string
	Base   int64
	Cur    int64
	Ratio  float64
}

func (g regression) String() string {
	return fmt.Sprintf("REGRESSION %-55s %-12s %12d -> %12d (%+.1f%%)",
		g.Key, g.Metric, g.Base, g.Cur, 100*(g.Ratio-1))
}

// diff compares current records against the baseline. Every baseline
// configuration must be present in current (a dropped workload would
// silently blind the trajectory); extra current configurations are
// reported but allowed, so new workloads can land with their baseline
// refresh in the same change.
func diff(baseline, current []record, byteTol, interTol float64) (regs []regression, notes []string) {
	cur := make(map[string]*record, len(current))
	for i := range current {
		cur[current[i].key()] = &current[i]
	}
	seen := make(map[string]bool, len(baseline))
	for i := range baseline {
		b := &baseline[i]
		k := b.key()
		seen[k] = true
		c, ok := cur[k]
		if !ok {
			regs = append(regs, regression{Key: k, Metric: "missing", Base: 1, Cur: 0, Ratio: 0})
			continue
		}
		if r := ratio(c.CommRemoteBytes, b.CommRemoteBytes); r > 1+byteTol {
			regs = append(regs, regression{k, "remote_bytes", b.CommRemoteBytes, c.CommRemoteBytes, r})
		} else if r < 1 {
			notes = append(notes, fmt.Sprintf("improved %-55s remote_bytes %d -> %d", k, b.CommRemoteBytes, c.CommRemoteBytes))
		}
		// State-vector memory traffic is deterministic for a fixed workload
		// and execution mode; growth means cache-blocking (or the kernels'
		// byte accounting) regressed.
		if r := ratio(c.BytesTouched, b.BytesTouched); r > 1+byteTol {
			regs = append(regs, regression{k, "bytes_touched", b.BytesTouched, c.BytesTouched, r})
		} else if r < 1 {
			notes = append(notes, fmt.Sprintf("improved %-55s bytes_touched %d -> %d", k, b.BytesTouched, c.BytesTouched))
		}
		// So are the passes over the state: more sweeps for the same
		// workload means a diagonal run or a tiled group fell apart.
		if r := ratio(c.Sweeps, b.Sweeps); r > 1+byteTol {
			regs = append(regs, regression{k, "sweeps", b.Sweeps, c.Sweeps, r})
		} else if r < 1 {
			notes = append(notes, fmt.Sprintf("improved %-55s sweeps %d -> %d", k, b.Sweeps, c.Sweeps))
		}
		// Compile-pipeline trajectory. Fused gate and remap counts are
		// deterministic for a fixed workload, so they get the tight byte
		// tolerance.
		if r := ratio(c.FusedGates, b.FusedGates); r > 1+byteTol {
			regs = append(regs, regression{k, "fused_gates", b.FusedGates, c.FusedGates, r})
		} else if r < 1 {
			notes = append(notes, fmt.Sprintf("improved %-55s fused_gates %d -> %d", k, b.FusedGates, c.FusedGates))
		}
		if r := ratio(c.Remaps, b.Remaps); r > 1+byteTol {
			regs = append(regs, regression{k, "remaps", b.Remaps, c.Remaps, r})
		} else if r < 1 {
			notes = append(notes, fmt.Sprintf("improved %-55s remaps %d -> %d", k, b.Remaps, c.Remaps))
		}
		// The two-level exchange split is deterministic for a fixed
		// workload and topology; inter-node bytes are the expensive wire,
		// so they get their own (tight) tolerance, while intra-node bytes
		// share the byte tolerance.
		if r := ratio(c.InterBytes, b.InterBytes); r > 1+interTol {
			regs = append(regs, regression{k, "inter_bytes", b.InterBytes, c.InterBytes, r})
		} else if r < 1 {
			notes = append(notes, fmt.Sprintf("improved %-55s inter_bytes %d -> %d", k, b.InterBytes, c.InterBytes))
		}
		if r := ratio(c.IntraBytes, b.IntraBytes); r > 1+byteTol {
			regs = append(regs, regression{k, "intra_bytes", b.IntraBytes, c.IntraBytes, r})
		} else if r < 1 {
			notes = append(notes, fmt.Sprintf("improved %-55s intra_bytes %d -> %d", k, b.IntraBytes, c.IntraBytes))
		}
		// Plan-cache hits regress downward: fewer hits than the baseline
		// means re-binding stopped working for a shape that used to cache.
		if c.PlanCacheHits < b.PlanCacheHits {
			regs = append(regs, regression{k, "plan_cache_hits", b.PlanCacheHits, c.PlanCacheHits,
				ratio(c.PlanCacheHits, b.PlanCacheHits)})
		}
	}
	for i := range current {
		if k := current[i].key(); !seen[k] {
			notes = append(notes, fmt.Sprintf("new config %s (not in baseline)", k))
		}
	}
	return regs, notes
}

// ratio returns cur/base, treating a zero baseline as regressed only if
// the current value became nonzero (0 -> N remote bytes is a real loss
// of a communication-free property).
func ratio(cur, base int64) float64 {
	if base == 0 {
		if cur == 0 {
			return 1
		}
		return 2 // always beyond tolerance
	}
	return float64(cur) / float64(base)
}

// load reads one bench record file, turning each failure mode into a
// diagnostic that says what to do about it, since this runs in CI where
// a bare "no such file" or "unexpected end of JSON input" wastes a
// debugging round trip.
func load(path string) ([]record, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%s: file not found — generate it with: go run ./cmd/svbench -json %s", path, path)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("%s: file is empty — an interrupted svbench run? regenerate it with: go run ./cmd/svbench -json %s", path, path)
	}
	var recs []record
	if err := json.Unmarshal(raw, &recs); err != nil {
		return nil, fmt.Errorf("%s: malformed bench records (%v) — the file must be a JSON array as written by svbench -json", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no bench records — the JSON array is empty; regenerate it with: go run ./cmd/svbench -json %s", path, path)
	}
	for i := range recs {
		if recs[i].Workload == "" || recs[i].Backend == "" {
			return nil, fmt.Errorf("%s: record %d has no workload/backend — is this really an svbench -json file?", path, i)
		}
	}
	return recs, nil
}

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), `usage: benchdiff -baseline FILE -current FILE [flags]
       benchdiff -html FILE BENCH_old.json BENCH_new.json [...]

Compares svbench -json record files and gates the perf trajectory.

Exit codes:
  0  every compared configuration is within tolerance (pass)
  1  at least one regression
  2  usage error: bad flags or unreadable/malformed record files

Flags:
`)
		flag.PrintDefaults()
	}
	basePath := flag.String("baseline", "BENCH_baseline.json", "committed baseline bench records")
	curPath := flag.String("current", "", "bench records from the current build (required)")
	byteTol := flag.Float64("byte-tol", 0.15, "allowed fractional growth in remote communication bytes")
	interTol := flag.Float64("inter-tol", 0.15, "allowed fractional growth in inter-node exchange bytes on topology records")
	htmlOut := flag.String("html", "", "trajectory mode: render the positional per-commit BENCH files (oldest first) as a self-contained HTML report to FILE")
	flag.Parse()

	if *htmlOut != "" {
		if flag.NArg() < 2 {
			fmt.Fprintln(os.Stderr, "benchdiff: -html needs at least two BENCH record files (oldest first)")
			os.Exit(2)
		}
		if err := writeTrajectoryHTML(*htmlOut, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		fmt.Printf("benchdiff: wrote %s (%d snapshots)\n", *htmlOut, flag.NArg())
		return
	}

	if *curPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -current is required")
		os.Exit(2)
	}
	baseline, err := load(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	current, err := load(*curPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	regs, notes := diff(baseline, current, *byteTol, *interTol)
	for _, n := range notes {
		fmt.Println(n)
	}
	if len(regs) > 0 {
		for _, g := range regs {
			fmt.Println(g)
		}
		fmt.Printf("benchdiff: %d regression(s) vs %s (byte-tol %.0f%%, inter-tol %.0f%%)\n",
			len(regs), *basePath, 100**byteTol, 100**interTol)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %d configs within tolerance of %s\n", len(baseline), *basePath)
}
