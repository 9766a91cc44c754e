package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Phase attribution: derive from the per-PE span tracks a report that
// splits each PE's wall time into the phases the SV-sim evaluation
// decomposes elapsed time by — compile, gate compute, pack, wire (the
// exchange itself), unpack, barrier, checkpoint — plus an "other"
// remainder so per-PE rows always sum to the measured wall time. The
// backends label sub-spans with a Phase; unlabeled spans (ordinary gate
// kernels) count as compute.

// Phase labels carried in SpanArgs.Phase.
const (
	PhaseCompile = "compile"
	PhaseCompute = "compute"
	// PhaseTile is cache-blocked tiled group execution (the single-node
	// -tile path): one span covers a whole gate run replayed tile by
	// tile, so it is attributed separately from per-gate compute.
	PhaseTile   = "tile"
	PhasePack   = "pack"
	PhaseWire   = "wire"
	PhaseUnpack = "unpack"
	// Intra- and inter-node sub-buckets of pack and wire. No span
	// carries them and Phases does not list them; bench/perf still sums
	// them into its pack and wire shares, where a missing bucket reads 0.
	PhasePackIntra  = "pack.intra"
	PhasePackInter  = "pack.inter"
	PhaseWireIntra  = "wire.intra"
	PhaseWireInter  = "wire.inter"
	PhaseBarrier    = "barrier"
	PhaseCheckpoint = "checkpoint"
	// PhaseCkptWrite is background checkpoint serialization: the
	// writer's shard+manifest I/O, recorded on its own track. Foreground
	// stalls stay in PhaseCheckpoint, so how much of the write compute
	// hid reads directly off these two buckets.
	PhaseCkptWrite = "ckpt.write"
	PhaseOther     = "other"
)

// Phases lists the attribution buckets in canonical display order.
func Phases() []string {
	return []string{PhaseCompile, PhaseCompute, PhaseTile, PhasePack,
		PhaseWire, PhaseUnpack, PhaseBarrier, PhaseCheckpoint,
		PhaseCkptWrite, PhaseOther}
}

// PEPhases is one PE's wall-time split. PhasesNS sums (with OtherNS
// included under "other") to WallNS whenever attributed time fits in the
// wall; an over-attributed PE (overlapping spans, a backend bug) keeps
// the raw sums and reports OtherNS = 0.
type PEPhases struct {
	PE       int              `json:"pe"`
	WallNS   int64            `json:"wall_ns"`
	BusyNS   int64            `json:"busy_ns"` // attributed minus barrier: useful work
	PhasesNS map[string]int64 `json:"phases_ns"`
}

// BlockPhases aggregates phase time over all PEs for one schedule block.
// Block 0 collects spans recorded outside any block.
type BlockPhases struct {
	Block    int              `json:"block"`
	PhasesNS map[string]int64 `json:"phases_ns"`
}

// PhaseReport is the machine-readable phase-attribution artifact.
type PhaseReport struct {
	SchemaVersion int    `json:"schema_version"`
	Backend       string `json:"backend"`
	Workload      string `json:"workload,omitempty"`
	PEs           int    `json:"pes"`
	WallNS        int64  `json:"wall_ns"`    // SPMD execution wall time
	CompileNS     int64  `json:"compile_ns"` // one-time compile pipeline cost
	TotalNS       int64  `json:"total_ns"`   // compile + execution

	PerPE    []PEPhases    `json:"per_pe"`
	PerBlock []BlockPhases `json:"per_block,omitempty"`

	// CriticalPathPct is the busiest PE's useful work as a percentage of
	// execution wall time: how much of the run the slowest rank was
	// actually computing or moving data rather than waiting.
	CriticalPathPct float64 `json:"critical_path_pct"`
	// LoadImbalancePct is (max-mean)/max of per-PE busy time: 0 for a
	// perfectly balanced fleet, approaching 100 when one PE does all the
	// work.
	LoadImbalancePct float64 `json:"load_imbalance_pct"`
}

// PhaseReportSchemaVersion identifies the JSON layout of PhaseReport.
const PhaseReportSchemaVersion = 1

// PhaseReportOpts carries the run-level facts the tracer cannot know.
type PhaseReportOpts struct {
	Backend   string
	Workload  string
	PEs       int
	WallNS    int64 // measured SPMD execution wall time
	CompileNS int64 // compile pipeline time (0 when unmeasured)
}

// BuildPhaseReport folds the tracer's spans into a PhaseReport. Call
// after the run (clean or aborted); a nil tracer yields a report with
// empty per-PE rows.
func BuildPhaseReport(t *Tracer, opts PhaseReportOpts) *PhaseReport {
	rep := &PhaseReport{
		SchemaVersion: PhaseReportSchemaVersion,
		Backend:       opts.Backend,
		Workload:      opts.Workload,
		PEs:           opts.PEs,
		WallNS:        opts.WallNS,
		CompileNS:     opts.CompileNS,
		TotalNS:       opts.WallNS + opts.CompileNS,
	}
	blocks := make(map[int]map[string]int64)
	var busy []int64
	for _, tr := range t.Tracks() {
		pp := PEPhases{PE: tr.PE(), WallNS: opts.WallNS, PhasesNS: make(map[string]int64)}
		for _, ev := range tr.Events() {
			ph := ev.Args.Phase
			if ph == "" {
				ph = PhaseCompute
			}
			pp.PhasesNS[ph] += ev.Dur
			b := blocks[ev.Args.Block]
			if b == nil {
				b = make(map[string]int64)
				blocks[ev.Args.Block] = b
			}
			b[ph] += ev.Dur
		}
		var attributed int64
		for ph, d := range pp.PhasesNS {
			attributed += d
			if ph != PhaseBarrier {
				pp.BusyNS += d
			}
		}
		if rem := opts.WallNS - attributed; rem > 0 {
			pp.PhasesNS[PhaseOther] = rem
		}
		busy = append(busy, pp.BusyNS)
		rep.PerPE = append(rep.PerPE, pp)
	}
	sort.Slice(rep.PerPE, func(i, j int) bool { return rep.PerPE[i].PE < rep.PerPE[j].PE })

	ids := make([]int, 0, len(blocks))
	for id := range blocks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		rep.PerBlock = append(rep.PerBlock, BlockPhases{Block: id, PhasesNS: blocks[id]})
	}

	if len(busy) > 0 && opts.WallNS > 0 {
		var max, sum int64
		for _, b := range busy {
			sum += b
			if b > max {
				max = b
			}
		}
		rep.CriticalPathPct = pct(max, opts.WallNS)
		if max > 0 {
			mean := float64(sum) / float64(len(busy))
			rep.LoadImbalancePct = (float64(max) - mean) / float64(max) * 100
		}
	}
	return rep
}

func pct(part, whole int64) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole) * 100
}

// WriteJSON serializes the report.
func (r *PhaseReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Summary renders the terminal table: one row per PE with its phase
// split as percentages of wall time, then the run-level critical-path
// and load-imbalance figures.
func (r *PhaseReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "phase attribution (%s, %d PE", r.Backend, r.PEs)
	if r.Workload != "" {
		fmt.Fprintf(&b, ", %s", r.Workload)
	}
	fmt.Fprintf(&b, "): wall %s, compile %s\n", fmtNS(r.WallNS), fmtNS(r.CompileNS))
	phases := activePhases(r)
	fmt.Fprintf(&b, "  %-4s", "PE")
	for _, ph := range phases {
		fmt.Fprintf(&b, " %9s", ph)
	}
	b.WriteByte('\n')
	for _, pp := range r.PerPE {
		fmt.Fprintf(&b, "  %-4d", pp.PE)
		for _, ph := range phases {
			fmt.Fprintf(&b, " %8.1f%%", pct(pp.PhasesNS[ph], pp.WallNS))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  critical path %.1f%% of wall, load imbalance %.1f%%\n",
		r.CriticalPathPct, r.LoadImbalancePct)
	return b.String()
}

// activePhases returns, in canonical order, the phases that appear in
// at least one PE row, so single-node summaries stay narrow.
func activePhases(r *PhaseReport) []string {
	seen := make(map[string]bool)
	for _, pp := range r.PerPE {
		for ph, d := range pp.PhasesNS {
			if d > 0 {
				seen[ph] = true
			}
		}
	}
	var out []string
	for _, ph := range Phases() {
		if seen[ph] {
			out = append(out, ph)
		}
	}
	return out
}

func fmtNS(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
