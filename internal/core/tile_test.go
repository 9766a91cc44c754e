package core

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/ckpt"
	"svsim/internal/gate"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
	"svsim/internal/statevec"
)

// mixedCircuit builds a circuit over all unitary kinds plus measurements,
// resets, and conditioned gates, so tiled runs must break around the
// non-unitary ops and freeze conditions per group.
func mixedCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New("mixed", n)
	c.NumClbits = 4 // conditions below may reference any of the 4 bits
	kinds := unitaryKinds()
	for i := 0; i < gates; i++ {
		switch rng.Intn(16) {
		case 0:
			q := rng.Intn(n)
			c.Measure(q, q%4)
			continue
		case 1:
			c.Reset(rng.Intn(n))
			continue
		}
		k := kinds[rng.Intn(len(kinds))]
		perm := rng.Perm(n)
		ps := make([]float64, k.NumParams())
		for j := range ps {
			ps[j] = (rng.Float64()*2 - 1) * 2 * math.Pi
		}
		g := gate.New(k, perm[:k.NumQubits()], ps...)
		if rng.Intn(10) == 0 {
			c.AppendCond(g, circuit.Condition{Offset: rng.Intn(4), Width: 1, Value: uint64(rng.Intn(2))})
		} else {
			c.Append(g)
		}
	}
	return c
}

// untiled is a tile size exponent at or above every window the tests
// run: the TileBits that asks for the per-gate path.
const untiled = 64

// tileBitsIf is the TileBits of a tiled (tile) or per-gate cell; 0
// derives the tile size.
func tileBitsIf(tile bool, tileBits int) int {
	if tile {
		return tileBits
	}
	return untiled
}

// qftCircuit is the textbook QFT: H plus a controlled-phase ladder per
// qubit, then the bit-reversal swaps — the workload tiling exists for
// (diagonal ladder compatible everywhere, H straddlers only at the top
// qubits).
func qftCircuit(n int) *circuit.Circuit {
	c := circuit.New("qft", n)
	for q := n - 1; q >= 0; q-- {
		c.H(q)
		for j := q - 1; j >= 0; j-- {
			c.CU1(math.Pi/float64(int(1)<<uint(q-j)), j, q)
		}
	}
	for q := 0; q < n/2; q++ {
		c.Swap(q, n-1-q)
	}
	return c
}

// TestTileMatchesPerGate is the cross-mode equivalence property: for
// both one-rank backends, every schedule policy, and fusion on or off,
// tiles smaller than the window produce a final state and classical
// register bit-identical to the per-gate path of the same backend
// (MaxAbsDiff exactly 0).
func TestTileMatchesPerGate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 3; trial++ {
		c := mixedCircuit(rng, 8, 150)
		for _, threaded := range []bool{false, true} {
			for _, pol := range []sched.Policy{sched.Naive, sched.Lazy} {
				for _, fuse := range []bool{false, true} {
					for _, tileBits := range []int{3, 5} {
						base := Config{Seed: 11, Sched: pol, Fuse: fuse, TileBits: untiled}
						tiled := base
						tiled.TileBits = tileBits
						var ref, got *Result
						var err error
						if threaded {
							base.PEs, tiled.PEs = 3, 3
							ref, err = Run("threaded", base, c)
							if err == nil {
								got, err = Run("threaded", tiled, c)
							}
						} else {
							ref, err = NewSingleDevice(base).Run(c)
							if err == nil {
								got, err = NewSingleDevice(tiled).Run(c)
							}
						}
						if err != nil {
							t.Fatal(err)
						}
						if got.Cbits != ref.Cbits {
							t.Fatalf("threaded=%v sched=%v fuse=%v tb=%d: cbits %b vs %b",
								threaded, pol, fuse, tileBits, got.Cbits, ref.Cbits)
						}
						if d := got.State.MaxAbsDiff(ref.State); d != 0 {
							t.Fatalf("threaded=%v sched=%v fuse=%v tb=%d: tile deviates by %g (want bit-identical)",
								threaded, pol, fuse, tileBits, d)
						}
					}
				}
			}
		}
	}
}

// TestTileCutsBytesTouched pins the acceptance number: on qft_n15 the
// default (tiled) single-device run must touch at least 4x fewer
// state-vector bytes than the per-gate run, with a bit-identical final
// state.
func TestTileCutsBytesTouched(t *testing.T) {
	c := qftCircuit(15)
	ref, err := NewSingleDevice(Config{Seed: 1, TileBits: untiled}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewSingleDevice(Config{Seed: 1}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.State.MaxAbsDiff(ref.State); d != 0 {
		t.Fatalf("tiled qft deviates by %g", d)
	}
	if got.SV.BytesTouched*4 > ref.SV.BytesTouched {
		t.Fatalf("bytes touched: tile %d vs per-gate %d — less than the required 4x cut",
			got.SV.BytesTouched, ref.SV.BytesTouched)
	}
	if got.SV.Sweeps >= ref.SV.Sweeps {
		t.Fatalf("sweeps: tile %d vs per-gate %d", got.SV.Sweeps, ref.SV.Sweeps)
	}
	if got.SV.Gates != ref.SV.Gates {
		t.Fatalf("gate counts diverge: tile %d vs per-gate %d", got.SV.Gates, ref.SV.Gates)
	}
}

// TestTileCheckpointInterop checks checkpoint compatibility across
// execution modes: a tiled run writes checkpoints at group boundaries
// that a per-gate run can resume from, and a tiled run can resume from a
// per-gate checkpoint that lands mid-group (finishing that group
// per-gate). Both resumes must reproduce the uninterrupted final state
// exactly.
func TestTileCheckpointInterop(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := mixedCircuit(rng, 7, 120)
	ref, err := NewSingleDevice(Config{Seed: 3}).Run(c)
	if err != nil {
		t.Fatal(err)
	}

	// Tiled run writing checkpoints -> per-gate resume.
	dir := t.TempDir()
	tiled, err := NewSingleDevice(Config{Seed: 3, TileBits: 3,
		CheckpointEvery: 13, CheckpointDir: dir}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if d := tiled.State.MaxAbsDiff(ref.State); d != 0 {
		t.Fatalf("tiled checkpointing run deviates by %g", d)
	}
	if tiled.Ckpt.Count == 0 {
		t.Fatal("tiled run wrote no checkpoints; interop test is vacuous")
	}
	for _, ck := range ckptDirs(t, dir) {
		res, err := NewSingleDevice(Config{Seed: 3, Resume: ck}).Run(c)
		if err != nil {
			t.Fatalf("per-gate resume from %s: %v", ck, err)
		}
		if d := res.State.MaxAbsDiff(ref.State); d != 0 {
			t.Fatalf("per-gate resume from %s deviates by %g", ck, d)
		}
	}

	// Per-gate run writing checkpoints -> tiled resume (mid-group landings).
	dir2 := t.TempDir()
	if _, err := NewSingleDevice(Config{Seed: 3,
		CheckpointEvery: 7, CheckpointDir: dir2}).Run(c); err != nil {
		t.Fatal(err)
	}
	for _, ck := range ckptDirs(t, dir2) {
		res, err := NewSingleDevice(Config{Seed: 3, TileBits: 3, Resume: ck}).Run(c)
		if err != nil {
			t.Fatalf("tiled resume from %s: %v", ck, err)
		}
		if d := res.State.MaxAbsDiff(ref.State); d != 0 {
			t.Fatalf("tiled resume from %s deviates by %g", ck, d)
		}
	}
}

func ckptDirs(t *testing.T, base string) []string {
	t.Helper()
	ents, err := os.ReadDir(base)
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, e := range ents {
		if e.IsDir() {
			dirs = append(dirs, filepath.Join(base, e.Name()))
		}
	}
	if len(dirs) == 0 {
		t.Fatal("no checkpoints written")
	}
	return dirs
}

// TestTileFleets: tile groups run on every rank of every grid. Every row
// of the backend table, under both plans, on 2 and 4 ranks (pool workers
// on threaded; SVSIM_REMAP_PES picks one count instead), with the derived
// tile and with 2^9-amplitude tiles,
// reproduces the per-gate single-device state exactly on a random
// circuit and the QFT. Under the naive plan a remote gate reads the
// windows the tiled group before it wrote, so a missing group-closing
// sync shows here as a race or a deviation.
func TestTileFleets(t *testing.T) {
	for _, c := range []*circuit.Circuit{qasmbench.RQC(16, 8, 1), qasmbench.QFT(16)} {
		want, err := NewSingleDevice(Config{Seed: 1, Style: statevec.Vectorized, TileBits: untiled}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range BackendNames(nil) {
			for _, pol := range []sched.Policy{sched.Naive, sched.Lazy} {
				for _, pes := range remapPEs(2, 4) {
					for _, tileBits := range []int{0, 9} {
						cfg := Config{Seed: 1, Style: statevec.Vectorized, PEs: pes, Sched: pol, TileBits: tileBits}
						name := fmt.Sprintf("%s %s ×%d tile-bits=%d %s", c.Name, backend, pes, tileBits, pol)
						got, err := Run(backend, cfg, c)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if d := got.State.MaxAbsDiff(want.State); d != 0 {
							t.Errorf("%s: deviates from per-gate single by %g", name, d)
						}
						if tileBits == 0 {
							continue
						}
						grid := pes
						if info, _ := LookupBackend(backend); !info.Distributed {
							grid = 1
						}
						if cp, _, _ := compileCircuit(cfg, c, grid); cp.Tiles == nil {
							t.Errorf("%s: no tile plan", name)
						}
					}
				}
			}
		}
	}
}

// TestTileFleetCheckpointCuts: checkpoints of a tiled lazy fleet cut
// between tile groups (the tiled run's own, at group edges) and inside
// them (a per-gate run's, whose cuts land mid-group) resume tiled on the
// same two ranks, and resharded onto four, to the uninterrupted state
// bit for bit; a resume inside a group finishes it per gate.
func TestTileFleetCheckpointCuts(t *testing.T) {
	c := qasmbench.RQC(16, 8, 1)
	base := Config{Seed: 1, PEs: 2, Sched: sched.Lazy, TileBits: 9}
	ref := runCell(t, "scale-out", base, c)
	cp, _, err := compileCircuit(base, c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Plan.Remaps == 0 {
		t.Fatal("no remap in the plan: the permutation goes untested")
	}
	inside := make([]bool, len(cp.Plan.Steps))
	for _, g := range cp.Tiles.Groups {
		for si := g.Start + 1; g.Tiled && si < g.End; si++ {
			inside[si] = true
		}
	}
	cuts := map[bool][]string{} // inside a tiled group -> checkpoints
	for _, tileBits := range []int{9, untiled} {
		dir := ckptTestDir(t)
		cfg := base
		cfg.TileBits, cfg.CheckpointEvery, cfg.CheckpointDir = tileBits, 9, dir
		runCell(t, "scale-out", cfg, c)
		for _, ck := range ckptDirs(t, dir) {
			_, m, err := ckpt.Resolve(ck)
			if err != nil {
				t.Fatal(err)
			}
			if tileBits != untiled && inside[m.Step] {
				t.Fatalf("tiled run cut inside a tile group at step %d", m.Step)
			}
			if in := inside[m.Step]; len(cuts[in]) < 3 {
				cuts[in] = append(cuts[in], ck)
			}
		}
	}
	if len(cuts[true]) == 0 || len(cuts[false]) == 0 {
		t.Fatalf("cuts inside tile groups: %d, between: %d; want both", len(cuts[true]), len(cuts[false]))
	}
	for in, cks := range cuts {
		for _, ck := range cks {
			for _, pes := range []int{2, 4} {
				cfg := base
				cfg.PEs, cfg.Resume = pes, ck
				got := runCell(t, "scale-out", cfg, c)
				if d := got.State.MaxAbsDiff(ref.State); d != 0 {
					t.Errorf("resume of %s (inside a group: %v) on %d ranks deviates by %g", ck, in, pes, d)
				}
			}
		}
	}
}

// TestTileGroupAllocatesNothing: a tiled group's member list and mapped
// gates are rank scratch, so once warm a group allocates nothing — on the
// identity plan and on a lazy plan whose gates map through the
// permutation its remaps left.
func TestTileGroupAllocatesNothing(t *testing.T) {
	for _, pol := range []sched.Policy{sched.Naive, sched.Lazy} {
		cfg := Config{PEs: 2, Sched: pol, TileBits: 9}
		cp, _, err := compileCircuit(cfg, qasmbench.QFT(16), cfg.PEs)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := newRuntime("scale-out", cfg, cp, oneSidedTransport, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		rt.gateSync = false // no fleet is running: skip the closing sync
		r := &rt.ranks[0]
		tested, mapped, si := 0, 0, cp.Plan.Prefix // a fresh start holds the prefix's permutation
		for _, grp := range cp.Tiles.Groups {
			for ; si < grp.Start; si++ { // the permutation at the group
				switch st := &cp.Plan.Steps[si]; st.Kind {
				case sched.StepRemap:
					for _, sw := range st.Swaps {
						r.perm.SwapPhysical(sw.Global, sw.Local)
					}
				case sched.StepAlias:
					r.perm.SwapLogical(st.A, st.B)
				}
			}
			if !grp.Tiled {
				continue
			}
			runs := cp.Runs
			for len(runs) > 0 && runs[0].Step < grp.Start {
				runs = runs[1:]
			}
			rt.tileGroup(nil, r, grp, runs, StepTrace{})
			if a := testing.AllocsPerRun(3, func() { rt.tileGroup(nil, r, grp, runs, StepTrace{}) }); a != 0 {
				t.Errorf("%s: tiled group [%d, %d) allocates %g times", pol, grp.Start, grp.End, a)
			}
			tested++
			if !r.perm.IsIdentity() {
				mapped++
			}
		}
		if tested == 0 || pol == sched.Lazy && mapped == 0 {
			t.Fatalf("%s: %d tiled groups, %d of them under a permutation", pol, tested, mapped)
		}
	}
}
