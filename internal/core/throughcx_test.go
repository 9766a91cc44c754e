package core

import (
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/ckpt"
	"svsim/internal/compile"
	"svsim/internal/decomp"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
)

// lowered returns suite circuit name in its lowered (QASMBench) form.
func lowered(t testing.TB, name string) *circuit.Circuit {
	t.Helper()
	e, err := qasmbench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return e.Build()
}

// TestThroughCXLoweredSuite: every lowered medium-suite circuit runs
// fused — its cu1 and ccx windows as diagonal passes through cx — within
// 1e-12 of its unfused run, with the same classical bits.
func TestThroughCXLoweredSuite(t *testing.T) {
	through := 0
	for _, e := range qasmbench.Medium() {
		c := e.Build()
		fused, err := NewSingleDevice(Config{Seed: 3, Fuse: true}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := NewSingleDevice(Config{Seed: 3}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if d := fused.State.MaxAbsDiff(plain.State); d > 1e-12 || fused.Cbits != plain.Cbits {
			t.Fatalf("%s: fused deviates from unfused by %g (cbits %b vs %b)", e.Name, d, fused.Cbits, plain.Cbits)
		}
		if plain.Compile.ThroughCX != 0 {
			t.Fatalf("%s: an unfused plan holds %d runs through cx", e.Name, plain.Compile.ThroughCX)
		}
		through += fused.Compile.ThroughCX
	}
	if through == 0 {
		t.Fatal("no fused plan of the medium suite holds a run through cx")
	}
}

// TestThroughCXResume: checkpoints of a fused lowered QFT fall due inside
// its runs through cx and are cut where the run ends; a resume from every
// one of them, and an elastic shrink from every one of a 4-rank run onto
// 2 ranks, finish the run. The resume is bit-identical to the
// uninterrupted run. The shrink agrees within 1e-12: it recompiles the
// residual stream unfused (re-fusing it would change the stream), so its
// cu1 windows run gate by gate.
func TestThroughCXResume(t *testing.T) {
	c := decomp.Expand(qasmbench.QFT(10))
	const every = 7
	for _, cell := range []struct {
		backend string
		pes     int
		pol     sched.Policy
	}{{"single", 1, sched.Naive}, {"scale-out", 4, sched.Naive}, {"scale-out", 4, sched.Lazy}} {
		base := Config{Seed: 5, PEs: cell.pes, Fuse: true, Sched: cell.pol}
		ref, err := Run(cell.backend, base, c)
		if err != nil {
			t.Fatal(err)
		}
		cp, _, err := compile.Compile(c, compile.Config{Fuse: true, Sched: cell.pol, PEs: cell.pes})
		if err != nil {
			t.Fatal(err)
		}
		ends := map[int]bool{} // steps a run through cx ends at
		for _, r := range cp.Runs {
			if r.ThroughCX {
				ends[r.Step+r.Gates] = true
			}
		}
		dir := ckptTestDir(t)
		cfg := base
		cfg.CheckpointEvery, cfg.CheckpointDir = every, dir
		if _, err := Run(cell.backend, cfg, c); err != nil {
			t.Fatal(err)
		}
		steps, err := ckpt.CompleteSteps(dir)
		if err != nil {
			t.Fatal(err)
		}
		delayed := 0
		for _, step := range steps {
			if ends[step] && step%every != 0 {
				delayed++
			}
			rcfg := base
			rcfg.Resume = ckpt.StepDir(dir, step)
			got, err := Run(cell.backend, rcfg, c)
			if err != nil {
				t.Fatalf("%s %s: step %d: %v", cell.backend, cell.pol, step, err)
			}
			if d := got.State.MaxAbsDiff(ref.State); d != 0 {
				t.Fatalf("%s %s: resume at step %d deviates by %g (want bit-identical)", cell.backend, cell.pol, step, d)
			}
			if cell.pes == 1 {
				continue
			}
			rcfg.PEs = 2
			shrunk, err := Run(cell.backend, rcfg, c)
			if err != nil {
				t.Fatalf("%s %s: shrink at step %d: %v", cell.backend, cell.pol, step, err)
			}
			if d := shrunk.State.MaxAbsDiff(ref.State); d > 1e-12 {
				t.Fatalf("%s %s: shrink at step %d deviates by %g", cell.backend, cell.pol, step, d)
			}
		}
		if delayed < 3 {
			t.Fatalf("%s %s: %d of %d checkpoints fell due inside a run through cx", cell.backend, cell.pol, delayed, len(steps))
		}
	}
}

// BenchmarkThroughCXRun times fused runs of lowered circuits whose cu1
// and ccx windows the fused plan runs as diagonal passes through cx: the
// lowered QFT(15) and a lowered-ccx ripple-carry adder (16 qubits) on
// single, and the lowered QFT(20) on scale-out ×2 naive, where a ladder's
// cx onto the rank bit runs inside a local diagonal step. Plans come from
// a warm cache, as in the service, so the time is the run's.
func BenchmarkThroughCXRun(b *testing.B) {
	for _, row := range []struct {
		name    string
		c       *circuit.Circuit
		backend string
		pes     int
	}{
		{"qft15_single", decomp.Expand(qasmbench.QFT(15)), "single", 1},
		{"adder16_single", decomp.Expand(qasmbench.BigAdder(16, 93, 45)), "single", 1},
		{"qft20_scaleout2", decomp.Expand(qasmbench.QFT(20)), "scale-out", 2},
	} {
		b.Run(row.name, func(b *testing.B) {
			cfg := Config{PEs: row.pes, Fuse: true, Plans: compile.NewCache(compile.DefaultCacheSize)}
			if _, err := Run(row.backend, cfg, row.c); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(row.backend, cfg, row.c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
