package core

import (
	"math/rand"
	"testing"

	"svsim/internal/ckpt"
	"svsim/internal/pgas"
	"svsim/internal/sched"
)

// oneRankCells are the P = 1 cells of the backend matrix: the grids the
// step loop runs with nobody to talk to.
var oneRankCells = map[string]func(Config) Backend{
	"single":      NewSingleDevice,
	"threaded/1":  func(cfg Config) Backend { cfg.PEs = 1; return &backend{name: "threaded", cfg: cfg} },
	"threaded/2":  func(cfg Config) Backend { cfg.PEs = 2; return &backend{name: "threaded", cfg: cfg} },
	"scale-out/1": func(cfg Config) Backend { cfg.PEs = 1; return NewScaleOut(cfg) },
}

// TestOneRankGridMeasured runs a circuit with measurements, resets and
// conditioned gates through every one-rank cell — per-gate, tiled and
// fused — and requires the classical bits and the state of the plain
// single-device run, exactly; and since one rank syncs with nobody, not
// one barrier, collective or message may be counted.
func TestOneRankGridMeasured(t *testing.T) {
	c := mixedCircuit(rand.New(rand.NewSource(21)), 8, 150)
	for _, fuse := range []bool{false, true} {
		want, err := NewSingleDevice(Config{Seed: 5, Fuse: fuse}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, tile := range []bool{false, true} {
			for name, mk := range oneRankCells {
				got, err := mk(Config{Seed: 5, Fuse: fuse, TileBits: tileBitsIf(tile, 3)}).Run(c)
				if err != nil {
					t.Fatalf("%s fuse=%v tile=%v: %v", name, fuse, tile, err)
				}
				if d := got.State.MaxAbsDiff(want.State); d != 0 || got.Cbits != want.Cbits {
					t.Errorf("%s fuse=%v tile=%v: state off by %g, cbits %b vs %b", name, fuse, tile, d, got.Cbits, want.Cbits)
				}
				if got.Comm != (pgas.Stats{}) {
					t.Errorf("%s fuse=%v tile=%v: a one-rank grid counted traffic: %s", name, fuse, tile, got.Comm)
				}
			}
		}
	}
}

// TestOneRankResultIsThePartition: one rank in natural order hands its
// partition out as the result — a gathered copy would double the peak
// footprint of every single-node run.
func TestOneRankResultIsThePartition(t *testing.T) {
	c := qftCircuit(8)
	for name, nt := range map[string]newTransport{"local": localTransport, "one-sided": oneSidedTransport, "two-sided": twoSidedTransport} {
		cp, _, err := compileCircuit(Config{}, c, 1)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := newRuntime(name, Config{PEs: 1}, cp, nt, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rt.run()
		if err != nil {
			t.Fatal(err)
		}
		if &res.State.Re[0] != &rt.ranks[0].Local.Re[0] || &res.State.Im[0] != &rt.ranks[0].Local.Im[0] {
			t.Errorf("%s: result state is a copy of the partition", name)
		}
		if res.Comm.Barriers != 0 {
			t.Errorf("%s: one rank counted %d barriers", name, res.Comm.Barriers)
		}
	}
}

// TestOneRankCheckpointInterop pins the checkpoint format across the
// fold, both directions. Written: a one-rank manifest is what the
// single-node backends always wrote — its backend's name, PEs 1, the
// plan step equal to the op cut, and no permutation, under either
// policy (a one-rank plan never leaves the identity). Read: such a
// manifest — any written before the fold included — resumes as the
// identity, written and resumed per-gate or tiled with the cut landing
// inside a tile group, to the uninterrupted result exactly.
func TestOneRankCheckpointInterop(t *testing.T) {
	c := mixedCircuit(rand.New(rand.NewSource(22)), 7, 120)
	for _, pol := range []sched.Policy{sched.Naive, sched.Lazy} {
		for _, wtile := range []bool{false, true} {
			base := Config{Seed: 3, Sched: pol}
			for name, mk := range oneRankCells {
				ref, err := mk(base).Run(c)
				if err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				wcfg := base
				wcfg.CheckpointEvery, wcfg.CheckpointDir = 7, dir
				wcfg.TileBits = tileBitsIf(wtile, 3)
				if _, err := mk(wcfg).Run(c); err != nil {
					t.Fatalf("%s %s wtile=%v: %v", name, pol, wtile, err)
				}
				for _, ck := range ckptDirs(t, dir) {
					_, m, err := ckpt.Resolve(ck)
					if err != nil {
						t.Fatal(err)
					}
					if m.Backend != ref.Backend || m.PEs != 1 || m.Step != m.OpsDone || len(m.Perm) != 0 {
						t.Errorf("%s %s wtile=%v: manifest backend=%q pes=%d step=%d ops=%d perm=%v",
							name, pol, wtile, m.Backend, m.PEs, m.Step, m.OpsDone, m.Perm)
					}
					for _, tile := range []bool{false, true} {
						rcfg := base
						rcfg.Resume, rcfg.TileBits = ck, tileBitsIf(tile, 3)
						got, err := mk(rcfg).Run(c)
						if err != nil {
							t.Fatalf("%s %s wtile=%v: resume %s tile=%v: %v", name, pol, wtile, ck, tile, err)
						}
						if d := got.State.MaxAbsDiff(ref.State); d != 0 || got.Cbits != ref.Cbits {
							t.Errorf("%s %s wtile=%v: resume %s tile=%v off by %g, cbits %b vs %b",
								name, pol, wtile, ck, tile, d, got.Cbits, ref.Cbits)
						}
					}
				}
			}
		}
	}
}
