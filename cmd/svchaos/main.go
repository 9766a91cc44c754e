// Command svchaos runs seeded randomized fault campaigns against the
// simulator's recovery machinery and asserts three invariants on every
// scenario:
//
//  1. bit-identity — the final state of the faulted run matches the
//     fault-free reference exactly (MaxAbsDiff == 0, classical bits
//     equal);
//  2. no hang — the scenario finishes inside a wall deadline, and
//     stalled barriers surface as recoverable deadline errors instead
//     of wedging the fleet;
//  3. bounded restarts — recoveries never exceed the restart budget.
//
// Each seed deterministically derives one scenario from the grid
// backend × schedule × topology × tile × delta cadence, then arms a
// fault plan. Four scenario kinds cover the fault taxonomy:
//
//   - wire: kill/delay/drop faults injected into the communication
//     substrate via internal/fault, with checkpoint/restart (and
//     optionally elastic shrink) expected to absorb them;
//   - stall: a barrier stall longer than the configured barrier
//     deadline, expected to unwind as a timeout and restart from the
//     latest checkpoint rather than hang;
//   - disk: a bit-flipped checkpoint shard on disk, expected to be
//     caught by CRC validation on resume and fall back to the next
//     older complete checkpoint (this is the harness's "corrupt"
//     dimension: wire-level corruption lands silently by design — see
//     internal/pgas — so corruption is exercised where detection is
//     the contract);
//   - tile: checkpoint/resume round-trips through the cache-blocked
//     one-rank grid (single, threaded), delta chains included.
//
// On violation the harness greedily minimizes the fault plan to the
// smallest subset that still reproduces, prints it in the -fault
// colon grammar, and (with -out) writes the repro spec and the
// scenario's flight trail for offline triage. Exit status is non-zero
// if any seed violated an invariant.
package main

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"svsim/internal/circuit"
	"svsim/internal/ckpt"
	"svsim/internal/core"
	"svsim/internal/fault"
	"svsim/internal/obs"
	"svsim/internal/sched"
	"svsim/internal/statevec"
)

// scenario is one deterministic campaign cell derived from a seed.
type scenario struct {
	seed     int64
	kind     string // wire | stall | disk | tile
	backend  string // scale-up | scale-out | mpi | single | threaded
	pes      int
	lazy     bool
	ppn      int // PEs per node, 0 = flat
	tile     bool
	tileBits int

	qubits   int
	gates    int
	measured bool

	ckptEvery   int
	fullEvery   int
	elastic     bool
	maxRestarts int
	barrier     time.Duration // barrier deadline (stall scenarios)

	faults []fault.Fault
	circ   *circuit.Circuit

	refState *statevec.State // fault-free reference, computed lazily
	refCbits uint64
}

// chaosCircuit builds a random circuit from a gate set every backend
// supports; measurements land on distinct classical bits so replay
// equivalence is observable.
func chaosCircuit(rng *rand.Rand, n, gates int, measured bool) *circuit.Circuit {
	c := circuit.New("chaos", n)
	for i := 0; i < gates; i++ {
		q := rng.Intn(n)
		switch rng.Intn(6) {
		case 0:
			c.H(q)
		case 1:
			c.T(q)
		case 2:
			c.RZ(2*math.Pi*rng.Float64(), q)
		case 3:
			c.X(q)
		case 4:
			p := rng.Intn(n - 1)
			if p >= q {
				p++
			}
			c.CX(q, p)
		default:
			p := rng.Intn(n - 1)
			if p >= q {
				p++
			}
			c.CU1(math.Pi*rng.Float64(), q, p)
		}
	}
	if measured {
		c.Measure(rng.Intn(n), 0)
		c.Measure(rng.Intn(n), 1)
	}
	return c
}

// buildScenario derives the campaign cell for one seed. stallDeadline
// is the barrier deadline stall scenarios run under (the armed stall
// sleeps twice that long, guaranteeing a timeout); raise it on slow or
// race-instrumented runners so ordinary barriers never trip it.
func buildScenario(seed int64, gateScale int, stallDeadline time.Duration) *scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := &scenario{
		seed:        seed,
		qubits:      6 + rng.Intn(3),
		gates:       gateScale + rng.Intn(20),
		maxRestarts: 3,
	}
	switch roll := rng.Float64(); {
	case roll < 0.12:
		sc.kind = "tile"
	case roll < 0.30:
		sc.kind = "disk"
	case roll < 0.45:
		sc.kind = "stall"
	default:
		sc.kind = "wire"
	}

	pick := func(opts ...string) string { return opts[rng.Intn(len(opts))] }
	switch sc.kind {
	case "tile":
		sc.backend = pick("single", "threaded")
		sc.tile = true
		if rng.Intn(2) == 0 {
			sc.tileBits = 3
		}
		sc.ckptEvery = 5 + 2*rng.Intn(2)
		if rng.Intn(2) == 0 {
			sc.fullEvery = 2
		}
		sc.measured = true
	case "disk":
		sc.backend = pick("scale-up", "scale-out")
		sc.pes = 1 << uint(1+rng.Intn(3))
		sc.lazy = rng.Intn(2) == 0
		sc.ckptEvery = 3
		sc.measured = true
	case "stall":
		sc.backend = pick("scale-up", "scale-out", "mpi")
		sc.pes = 1 << uint(1+rng.Intn(3))
		sc.lazy = rng.Intn(2) == 0
		sc.ckptEvery = 3
		sc.barrier = stallDeadline
		sc.measured = true
		sc.faults = append(sc.faults, fault.Fault{
			Kind: fault.Stall, Rank: rng.Intn(sc.pes), Op: fault.Barrier,
			After: int64(25 + rng.Intn(30)), Count: 1, Delay: 2 * stallDeadline,
		})
	default: // wire
		sc.backend = pick("scale-up", "scale-out", "mpi")
		sc.pes = 1 << uint(1+rng.Intn(3))
		sc.lazy = rng.Intn(2) == 0
		if sc.lazy && sc.pes >= 4 && rng.Intn(2) == 0 {
			sc.ppn = sc.pes / 2
		}
		sc.ckptEvery = 3 + 2*rng.Intn(2)
		sc.measured = true

		kill := rng.Float64() < 0.7
		if kill {
			sc.faults = append(sc.faults, fault.Fault{
				Kind: fault.Kill, Rank: rng.Intn(sc.pes), Op: fault.Barrier,
				After: int64(25 + rng.Intn(40)), Count: 1,
			})
			// Elastic shrink may finish the run on half the fleet. Under
			// the naive plan neither the state nor a measurement depends
			// on the fleet size; a lazy plan re-planned for the half
			// fleet measures a qubit at another physical position, which
			// sums its probability in another order, so it stays
			// measurement-free.
			if rng.Float64() < 0.4 {
				sc.elastic = true
				sc.measured = !sc.lazy
			}
		}
		benign := rng.Intn(2)
		if !kill {
			benign++ // every wire scenario arms at least one fault
		}
		info, _ := core.LookupBackend(sc.backend)
		for i := 0; i < benign; i++ {
			if !info.OneSided {
				// The two-sided transport's fault surface is its
				// barriers; with no deadline armed a stall there is a
				// delay the fleet must simply outlast.
				kinds := []fault.Kind{fault.Delay, fault.Stall}
				sc.faults = append(sc.faults, fault.Fault{
					Kind: kinds[rng.Intn(2)], Rank: rng.Intn(sc.pes), Op: fault.Barrier,
					After: int64(5 + rng.Intn(30)), Count: int64(1 + rng.Intn(3)),
					Delay: time.Duration(1+rng.Intn(3)) * time.Millisecond,
				})
				continue
			}
			ops := []fault.Op{fault.Get, fault.Put}
			if rng.Intn(2) == 0 {
				sc.faults = append(sc.faults, fault.Fault{
					Kind: fault.Drop, Rank: rng.Intn(sc.pes), Op: ops[rng.Intn(2)],
					After: int64(10 + rng.Intn(50)), Count: int64(1 + rng.Intn(2)),
				})
			} else {
				sc.faults = append(sc.faults, fault.Fault{
					Kind: fault.Delay, Rank: rng.Intn(sc.pes), Op: ops[rng.Intn(2)],
					After: int64(10 + rng.Intn(50)), Count: int64(1 + rng.Intn(3)),
					Delay: time.Duration(1+rng.Intn(3)) * time.Millisecond,
				})
			}
		}
		// Drawn after the fault plan: this order keeps an mpi lazy kill,
		// restarted and shrunk, in CI's 16 seeds
		// (TestCICampaignCoversTwoSidedLazy).
		if rng.Intn(2) == 0 {
			sc.fullEvery = 2 + rng.Intn(2)
		}
	}

	sc.circ = chaosCircuit(rng, sc.qubits, sc.gates, sc.measured)
	return sc
}

func (sc *scenario) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d kind=%s backend=%s", sc.seed, sc.kind, sc.backend)
	if sc.pes > 0 {
		fmt.Fprintf(&b, " pes=%d", sc.pes)
	}
	if sc.lazy {
		b.WriteString(" sched=lazy")
	}
	if sc.ppn > 0 {
		fmt.Fprintf(&b, " ppn=%d", sc.ppn)
	}
	if sc.tile {
		fmt.Fprintf(&b, " tile=on tile-bits=%d", sc.tileBits)
	}
	fmt.Fprintf(&b, " ckpt-every=%d full-every=%d elastic=%v circuit=%s/%dq/%dg",
		sc.ckptEvery, sc.fullEvery, sc.elastic,
		sc.circ.Name, sc.circ.NumQubits, sc.circ.NumGates())
	return b.String()
}

// spec renders a fault plan in the -fault colon grammar.
func spec(faults []fault.Fault) string {
	if len(faults) == 0 {
		return "<none>"
	}
	parts := make([]string, len(faults))
	for i, f := range faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, ";")
}

// outcome is what invariant checks need from one run.
type outcome struct {
	state      *statevec.State
	cbits      uint64
	recoveries int
	ckpts      int64
}

func (sc *scenario) injector(faults []fault.Fault) *fault.Injector {
	if len(faults) == 0 {
		return nil
	}
	in := fault.NewInjector(sc.seed)
	for _, f := range faults {
		in.Arm(f)
	}
	return in
}

func (sc *scenario) coreConfig(dir string, flight *obs.FlightRecorder) core.Config {
	cfg := core.Config{
		Seed:   sc.seed,
		PEs:    sc.pes,
		Flight: flight,
	}
	if sc.lazy {
		cfg.Sched = sched.Lazy
	}
	if sc.ppn > 0 {
		cfg.Topology.PEsPerNode = sc.ppn
	}
	if dir != "" {
		cfg.CheckpointEvery = sc.ckptEvery
		cfg.CheckpointDir = dir
		cfg.CheckpointFullEvery = sc.fullEvery
		cfg.MaxRestarts = sc.maxRestarts
		cfg.Elastic = sc.elastic
	}
	cfg.Timeouts.Barrier = sc.barrier
	// Dropped one-sided ops are expected to be absorbed by the retry
	// path (svsim's default budget), not to fail the fleet.
	cfg.Timeouts.OpRetries = 8
	cfg.Tile = sc.tile
	cfg.TileBits = sc.tileBits
	return cfg
}

func (sc *scenario) runCore(cfg core.Config) (*outcome, error) {
	b, err := core.NewBackend(sc.backend, cfg)
	if err != nil {
		return nil, err
	}
	res, err := b.Run(sc.circ)
	if err != nil {
		return nil, err
	}
	return &outcome{state: res.State, cbits: res.Cbits, recoveries: res.Recoveries, ckpts: res.Ckpt.Count}, nil
}

// reference computes (once) the fault-free, checkpoint-free run the
// chaos run must match bit-for-bit.
func (sc *scenario) reference() error {
	if sc.refState != nil {
		return nil
	}
	cfg := sc.coreConfig("", nil)
	cfg.Timeouts.Barrier = 0 // the reference never times out
	out, err := sc.runCore(cfg)
	if err != nil {
		return fmt.Errorf("reference run failed: %w", err)
	}
	sc.refState, sc.refCbits = out.state, out.cbits
	return nil
}

// chaosOnce runs the faulted scenario once and returns its outcome.
func (sc *scenario) chaosOnce(faults []fault.Fault, flight *obs.FlightRecorder) (*outcome, error) {
	dir, err := os.MkdirTemp("", "svchaos-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	switch sc.kind {
	case "tile":
		return sc.tileRoundTrip(dir, flight)
	case "disk":
		return sc.diskCorruption(dir, flight)
	default:
		cfg := sc.coreConfig(dir, flight)
		cfg.Fault = sc.injector(faults)
		return sc.runCore(cfg)
	}
}

// tileRoundTrip checkpoints a cache-blocked run, then resumes from a
// deterministic intermediate step and finishes.
func (sc *scenario) tileRoundTrip(dir string, flight *obs.FlightRecorder) (*outcome, error) {
	cfg := sc.coreConfig(dir, flight)
	first, err := sc.runCore(cfg)
	if err != nil {
		return nil, fmt.Errorf("checkpointing run: %w", err)
	}
	steps, err := ckpt.CompleteSteps(dir)
	if err != nil {
		return nil, fmt.Errorf("enumerating checkpoints: %w", err)
	}
	if len(steps) == 0 {
		// Tiled checkpoint cadence quantizes to group boundaries, so a
		// plan whose groups skip every due step legitimately writes no
		// checkpoints; the full run still has to match the reference.
		return first, nil
	}
	// Resume from the middle of the chain, not just the newest step.
	pickStep := steps[len(steps)/2]
	rcfg := sc.coreConfig("", flight)
	rcfg.Resume = ckpt.StepDir(dir, pickStep)
	return sc.runCore(rcfg)
}

// diskCorruption writes a checkpoint chain, bit-flips a shard of the
// newest checkpoint, and resumes: CRC validation must reject the
// corrupt shard and fall back to the next older complete checkpoint.
func (sc *scenario) diskCorruption(dir string, flight *obs.FlightRecorder) (*outcome, error) {
	cfg := sc.coreConfig(dir, flight)
	if _, err := sc.runCore(cfg); err != nil {
		return nil, fmt.Errorf("checkpointing run: %w", err)
	}
	steps, err := ckpt.CompleteSteps(dir)
	if err != nil || len(steps) < 2 {
		return nil, fmt.Errorf("need >=2 checkpoints to exercise fallback, have %d (err=%v)", len(steps), err)
	}
	shard := filepath.Join(ckpt.StepDir(dir, steps[0]), ckpt.ShardFile(int(sc.seed)%sc.pes))
	raw, err := os.ReadFile(shard)
	if err != nil {
		return nil, fmt.Errorf("reading shard to corrupt: %w", err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(shard, raw, 0o644); err != nil {
		return nil, fmt.Errorf("corrupting shard: %w", err)
	}
	rcfg := sc.coreConfig("", flight)
	rcfg.Resume = dir
	rcfg.CheckpointDir = dir // fallback needs the base to enumerate older steps
	return sc.runCore(rcfg)
}

// check runs the scenario against the given fault plan and returns an
// empty string when every invariant holds, else the violation.
func (sc *scenario) check(faults []fault.Fault, wall time.Duration, flight *obs.FlightRecorder) string {
	if err := sc.reference(); err != nil {
		return err.Error()
	}
	type done struct {
		out *outcome
		err error
	}
	ch := make(chan done, 1)
	go func() {
		out, err := sc.chaosOnce(faults, flight)
		ch <- done{out, err}
	}()
	var d done
	select {
	case d = <-ch:
	case <-time.After(wall):
		return fmt.Sprintf("hang: scenario still running after %v wall deadline", wall)
	}
	if d.err != nil {
		return fmt.Sprintf("run error: %v", d.err)
	}
	if d.out.recoveries > sc.maxRestarts {
		return fmt.Sprintf("restart budget exceeded: %d recoveries > %d allowed", d.out.recoveries, sc.maxRestarts)
	}
	if diff := d.out.state.MaxAbsDiff(sc.refState); diff != 0 {
		return fmt.Sprintf("state deviates from fault-free reference by %g (want bit-identical)", diff)
	}
	if sc.measured && d.out.cbits != sc.refCbits {
		return fmt.Sprintf("classical bits deviate: %b vs reference %b", d.out.cbits, sc.refCbits)
	}
	return ""
}

// minimize greedily shrinks a violating fault plan to a subset that
// still reproduces the violation.
func (sc *scenario) minimize(faults []fault.Fault, wall time.Duration) []fault.Fault {
	min := faults
	for changed := true; changed && len(min) > 1; {
		changed = false
		for i := range min {
			trial := make([]fault.Fault, 0, len(min)-1)
			trial = append(trial, min[:i]...)
			trial = append(trial, min[i+1:]...)
			if sc.check(trial, wall, nil) != "" {
				min = trial
				changed = true
				break
			}
		}
	}
	return min
}

type violation struct {
	sc     *scenario
	reason string
	spec   string
}

func runSeed(seed int64, gateScale int, stallDeadline, wall time.Duration, outDir string, verbose bool) *violation {
	sc := buildScenario(seed, gateScale, stallDeadline)
	flight := obs.NewFlightRecorder(4096)
	reason := sc.check(sc.faults, wall, flight)
	if reason == "" {
		if verbose {
			fmt.Printf("ok   %s faults=%s\n", sc, spec(sc.faults))
		}
		return nil
	}
	min := sc.faults
	if len(min) > 1 {
		min = sc.minimize(min, wall)
	}
	v := &violation{sc: sc, reason: reason, spec: spec(min)}
	fmt.Printf("FAIL %s\n     %s\n     minimized -fault spec: %s\n     repro: svchaos -seed0 %d -seeds 1 -gates %d\n",
		sc, reason, v.spec, seed, gateScale)
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err == nil {
			repro := fmt.Sprintf("scenario: %s\nviolation: %s\nminimized -fault spec: %s\nrepro: svchaos -seed0 %d -seeds 1 -gates %d\n",
				sc, reason, v.spec, seed, gateScale)
			os.WriteFile(filepath.Join(outDir, fmt.Sprintf("seed-%d.repro.txt", seed)), []byte(repro), 0o644)  //nolint:errcheck
			obs.WriteFile(filepath.Join(outDir, fmt.Sprintf("seed-%d.flight.jsonl", seed)), flight.WriteJSONL) //nolint:errcheck
		}
	}
	return v
}

func main() {
	seeds := flag.Int("seeds", 64, "number of seeded scenarios to run")
	seed0 := flag.Int64("seed0", 1, "first seed of the campaign")
	gateScale := flag.Int("gates", 60, "base gate count per scenario circuit")
	wall := flag.Duration("wall", 60*time.Second, "per-scenario wall deadline (hang detector)")
	stallDeadline := flag.Duration("stall-deadline", 2*time.Second, "barrier deadline for stall scenarios (raise under -race or on slow runners)")
	outDir := flag.String("out", "", "directory for repro specs and flight trails of violations")
	verbose := flag.Bool("v", false, "print every scenario, not just violations")
	flag.Parse()

	start := time.Now()
	kinds := map[string]int{}
	var violations []*violation
	for i := 0; i < *seeds; i++ {
		seed := *seed0 + int64(i)
		sc := buildScenario(seed, *gateScale, *stallDeadline)
		kinds[sc.kind+"/"+sc.backend]++
		if v := runSeed(seed, *gateScale, *stallDeadline, *wall, *outDir, *verbose); v != nil {
			violations = append(violations, v)
		}
	}
	cells := make([]string, 0, len(kinds))
	for k, n := range kinds {
		cells = append(cells, fmt.Sprintf("%s:%d", k, n))
	}
	sort.Strings(cells)
	fmt.Printf("svchaos: %d seeds in %v — %d violations [%s]\n",
		*seeds, time.Since(start).Round(time.Millisecond), len(violations), strings.Join(cells, " "))
	if len(violations) > 0 {
		os.Exit(1)
	}
}
