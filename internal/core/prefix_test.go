package core

import (
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"

	"svsim/internal/baseline"
	"svsim/internal/circuit"
	"svsim/internal/ckpt"
	"svsim/internal/gate"
	"svsim/internal/obs"
	"svsim/internal/sched"
	"svsim/internal/statevec"
)

// classicalKinds are the gates a classical prefix holds.
var classicalKinds = []gate.Kind{gate.X, gate.CX, gate.CCX, gate.C3X, gate.C4X, gate.SWAP, gate.CSWAP}

// appendClassical appends k random X- and SWAP-family gates on n qubits.
// Controls land on set and unset bits alike, since the first gates set
// only some of them.
func appendClassical(rng *rand.Rand, c *circuit.Circuit, k int) {
	for i := 0; i < k; i++ {
		kind := classicalKinds[rng.Intn(len(classicalKinds))]
		if kind.NumQubits() > c.NumQubits {
			kind = gate.X
		}
		c.Append(gate.New(kind, rng.Perm(c.NumQubits)[:kind.NumQubits()]))
	}
}

// prefixCircuit opens on a generated classical prefix of every folded
// kind, then an h that ends it, then more classical gates — a cut after
// the h leaves a residual stream that opens with them — then random
// unitaries.
func prefixCircuit(seed int64, n, prefix, tail int) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New("prefix", n)
	appendClassical(rng, c, prefix)
	c.H(rng.Intn(n))
	appendClassical(rng, c, 3)
	c.Concat(randomCircuit(rng, n, tail))
	return c
}

// perGate is c behind a barrier: a barrier is no classical gate, so a run
// of it executes every gate of c from |0...0> — the per-gate replay the
// fold must equal.
func perGate(c *circuit.Circuit) *circuit.Circuit {
	r := *c
	r.Ops = append([]circuit.Op{{G: gate.NewBarrier()}}, c.Ops...)
	return &r
}

// prefixCells is every backend cell: the one-rank grids per gate, tiled
// and pooled, the one-sided fleets naive, coalesced and lazy, and the
// two-sided fleet under both plans.
var prefixCells = []struct {
	name    string
	backend string
	cfg     Config
}{
	{"single", "single", Config{}},
	{"single tiled", "single", Config{Tile: true, TileBits: 3}},
	{"threaded x2", "threaded", Config{PEs: 2}},
	{"threaded x2 tiled", "threaded", Config{PEs: 2, Tile: true, TileBits: 3}},
	{"scale-up x4", "scale-up", Config{PEs: 4}},
	{"scale-out x4 naive", "scale-out", Config{PEs: 4}},
	{"scale-out x4 coalesced", "scale-out", Config{PEs: 4, Coalesced: true}},
	{"scale-out x4 lazy", "scale-out", Config{PEs: 4, Sched: sched.Lazy}},
	{"mpi x4", "mpi", Config{PEs: 4}},
	{"mpi x4 lazy", "mpi", Config{PEs: 4, Sched: sched.Lazy}},
}

func runCell(t *testing.T, backend string, cfg Config, c *circuit.Circuit) *Result {
	t.Helper()
	res, err := Run(backend, cfg, c)
	if err != nil {
		t.Fatalf("%s: %v", backend, err)
	}
	return res
}

// TestClassicalPrefixBitIdentical: on every backend cell a fresh run that
// folds the classical prefix lands on the per-gate replay of the source
// circuit bit for bit, and within rounding on the generic-matrix
// baseline — unitary circuits, where every cell also equals single's
// replay — and on the cell's own replay, classical bits included, for a
// measured circuit.
func TestClassicalPrefixBitIdentical(t *testing.T) {
	for trial := int64(0); trial < 4; trial++ {
		c := prefixCircuit(100+trial, 7, 6+int(trial)*3, 60)
		amps, err := baseline.NewGenericMatrix().Run(c)
		if err != nil {
			t.Fatal(err)
		}
		want := runCell(t, "single", Config{}, perGate(c))
		measured := prefixCircuit(200+trial, 7, 8, 40).Measure(3, 0).Measure(5, 1)
		for _, cell := range prefixCells {
			got := runCell(t, cell.backend, cell.cfg, c)
			if got.Compile.PrefixGates == 0 {
				t.Fatalf("trial %d %s: no prefix folded", trial, cell.name)
			}
			if d := got.State.MaxAbsDiff(want.State); d != 0 {
				t.Fatalf("trial %d %s: folded run off the per-gate replay by %g", trial, cell.name, d)
			}
			for k, a := range amps {
				if d := cmplx.Abs(got.State.Amplitude(k) - a); d > 1e-12 {
					t.Fatalf("trial %d %s: amplitude %d off the generic-matrix baseline by %g", trial, cell.name, k, d)
				}
			}
			cfg := cell.cfg
			cfg.Seed = trial
			ref := runCell(t, cell.backend, cfg, perGate(measured))
			got = runCell(t, cell.backend, cfg, measured)
			if d := got.State.MaxAbsDiff(ref.State); d != 0 || got.Cbits != ref.Cbits {
				t.Fatalf("trial %d %s measured: off the per-gate replay by %g, cbits %b vs %b", trial, cell.name, d, got.Cbits, ref.Cbits)
			}
		}
	}
}

// TestClassicalPrefixResumeEveryStep: only a fresh start folds. A run cut
// at every step boundary and resumed — on the same PE count, and
// resharded onto another, whose warm start must execute a residual stream
// that may itself open with classical gates — equals the uninterrupted
// run. So does every checkpoint of a run that executes its prefix step by
// step (the parent's format), cut inside the prefix included.
func TestClassicalPrefixResumeEveryStep(t *testing.T) {
	c := prefixCircuit(7, 6, 10, 30)
	for _, cell := range []struct {
		name    string
		backend string
		cfg     Config
		other   int // PE count a checkpoint is resharded onto; 0 = none
	}{
		{"single", "single", Config{}, 0},
		{"threaded x2 tiled", "threaded", Config{PEs: 2, Tile: true, TileBits: 2}, 0},
		{"scale-out x4 naive", "scale-out", Config{PEs: 4}, 2},
		{"scale-out x4 lazy", "scale-out", Config{PEs: 4, Sched: sched.Lazy}, 2},
		{"scale-out x2 lazy", "scale-out", Config{PEs: 2, Sched: sched.Lazy}, 4},
		{"mpi x4 lazy", "mpi", Config{PEs: 4, Sched: sched.Lazy}, 2},
	} {
		ref := runCell(t, cell.backend, cell.cfg, c)
		if ref.Compile.PrefixGates == 0 {
			t.Fatalf("%s: no prefix folded", cell.name)
		}
		fresh := cell.cfg
		fresh.CheckpointEvery, fresh.CheckpointDir = 1, ckptTestDir(t)
		runCell(t, cell.backend, fresh, c)
		// A warm start from |0...0> executes every step from 0, as the
		// parent did, and cuts inside the prefix too.
		parent := cell.cfg
		parent.CheckpointEvery, parent.CheckpointDir = 1, ckptTestDir(t)
		parent.warm = &ckpt.WarmStart{State: statevec.New(c.NumQubits)}
		runCell(t, cell.backend, parent, c)

		inside := false
		for _, dir := range []string{fresh.CheckpointDir, parent.CheckpointDir} {
			for _, ck := range ckptDirs(t, dir) {
				_, m, err := ckpt.Resolve(ck)
				if err != nil {
					t.Fatal(err)
				}
				inside = inside || m.OpsDone < ref.Compile.PrefixGates
				pes := []int{max(cell.cfg.PEs, 1)}
				if cell.other > 0 {
					pes = append(pes, cell.other)
				}
				for _, p := range pes {
					rcfg := cell.cfg
					rcfg.Resume, rcfg.PEs = ck, p
					got := runCell(t, cell.backend, rcfg, c)
					if d := got.State.MaxAbsDiff(ref.State); d != 0 {
						t.Fatalf("%s: resume of %s (op %d) on %d PEs off the uninterrupted run by %g",
							cell.name, ck, m.OpsDone, p, d)
					}
				}
			}
		}
		if !inside {
			t.Fatalf("%s: no checkpoint cut inside the prefix", cell.name)
		}
	}
}

// TestClassicalPrefixTraced: a traced fresh run records one zero-length
// prefix span on rank 0, labelled with the op count it folded; a resumed
// run, which folds nothing, records none.
func TestClassicalPrefixTraced(t *testing.T) {
	c := prefixCircuit(11, 6, 5, 20)
	dir := ckptTestDir(t)
	for _, resume := range []string{"", dir} {
		tr := obs.NewTracer()
		cfg := Config{PEs: 4, Sched: sched.Lazy, Trace: tr}
		if resume == "" {
			cfg.CheckpointEvery, cfg.CheckpointDir = 10, dir
		} else {
			cfg.Resume = resume
		}
		res := runCell(t, "scale-out", cfg, c)
		spans := 0
		for _, trk := range tr.Tracks() {
			for _, ev := range trk.Events() {
				if ev.Args.Kind != "prefix" {
					continue
				}
				spans++
				if trk.PE() != 0 || ev.Dur != 0 || !strings.Contains(ev.Name, "classical prefix (") {
					t.Fatalf("prefix span %+v on PE %d", ev, trk.PE())
				}
			}
		}
		if want := map[bool]int{true: 1, false: 0}[resume == ""]; spans != want {
			t.Fatalf("resume %q: %d prefix spans, want %d (%d prefix gates)", resume, spans, want, res.Compile.PrefixGates)
		}
	}
}
