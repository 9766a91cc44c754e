package core

import (
	"math/rand"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/ckpt"
	"svsim/internal/obs"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
)

// randomPauli draws a string of the given weight over qubits.
func randomPauli(rng *rand.Rand, qubits []int) []circuit.PauliTerm {
	terms := make([]circuit.PauliTerm, len(qubits))
	for i, q := range qubits {
		terms[i] = circuit.PauliTerm{P: []circuit.Pauli{'X', 'Y', 'Z'}[rng.Intn(3)], Q: q}
	}
	return terms
}

// splicedCircuit is random gates of every kind with ExpPauli windows of
// weight 2..n spliced in every few gates.
func splicedCircuit(rng *rand.Rand, n, pieces int) *circuit.Circuit {
	c := circuit.New("spliced", n)
	for k := 0; k < pieces; k++ {
		c.Concat(randomCircuit(rng, n, 1+rng.Intn(8)))
		c.ExpPauli(rng.Float64()*4-2, randomPauli(rng, rng.Perm(n)[:2+rng.Intn(n-1)]))
	}
	return c
}

func uccsdPoint(rng *rand.Rand, n int) *circuit.Circuit {
	th := make([]float64, qasmbench.UCCSDNumParams(n))
	for i := range th {
		th[i] = 0.05 + rng.Float64()
	}
	return qasmbench.BuildUCCSD(n, th)
}

// passes reads how many Pauli gadgets a run with metrics m executed as
// one pass, per rank.
func passes(m *obs.Metrics, ranks int) int {
	return int(m.Histogram(obs.MetricGateKernelNS+".pauli_rot", obs.LatencyBuckets()).Count()) / ranks
}

// TestGadgetsMatchUnfused: executing the marked windows as one pass each
// moves the state by rounding only — fused single against unfused single
// within 1e-12 on UCCSD(4..8), where every gate but the Hartree-Fock x is
// inside a gadget, and on 80 random circuits with windows spliced in —
// and every gadget the plan holds is taken on one rank, tiled and
// threaded included.
func TestGadgetsMatchUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var cs []*circuit.Circuit
	for n := 4; n <= 8; n += 2 {
		cs = append(cs, uccsdPoint(rng, n))
	}
	for trial := 0; trial < 80; trial++ {
		cs = append(cs, splicedCircuit(rng, 5+trial%5, 6))
	}
	for i, c := range cs {
		want, err := NewSingleDevice(Config{Seed: 3}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if want.Compile.Gadgets != 0 {
			t.Fatalf("circuit %d: an unfused plan holds %d gadgets", i, want.Compile.Gadgets)
		}
		for _, cell := range []struct {
			name string
			b    func(Config) Backend
			cfg  Config
		}{
			{"single", NewSingleDevice, Config{}},
			{"single tiled", NewSingleDevice, Config{Tile: true, TileBits: 2}},
			{"threaded x3", NewThreaded, Config{PEs: 3}},
		} {
			cfg := cell.cfg
			cfg.Seed, cfg.Fuse, cfg.Metrics = 3, true, obs.NewMetrics()
			got, err := cell.b(cfg).Run(c)
			if err != nil {
				t.Fatalf("circuit %d %s: %v", i, cell.name, err)
			}
			if d := got.State.MaxAbsDiff(want.State); d > 1e-12 {
				t.Fatalf("circuit %d (%s) %s: fused deviates from unfused by %g", i, c.Name, cell.name, d)
			}
			if got.Compile.Gadgets == 0 || passes(cfg.Metrics, 1) != got.Compile.Gadgets {
				t.Fatalf("circuit %d (%s) %s: %d gadgets in the plan, %d executed as one pass", i, c.Name, cell.name, got.Compile.Gadgets, passes(cfg.Metrics, 1))
			}
			if c.Name == "uccsd" && !cfg.Tile {
				// 855 steps for UCCSD(10): one sweep per gadget and per x.
				if steps := int64(got.Compile.Gadgets + c.NumQubits/2); got.SV.Sweeps != steps || got.SV.Gates != int64(c.NumGates()) {
					t.Fatalf("UCCSD(%d) %s: %d gates in %d sweeps, want %d in %d", c.NumQubits, cell.name, got.SV.Gates, got.SV.Sweeps, c.NumGates(), steps)
				}
			}
		}
	}
}

// TestGadgetFleets: on several ranks a gadget is one pass when no X or Y
// of its string sits in the rank bits at that step, and its members
// execute as the gates they are otherwise. Under the naive plan that is
// decided per gadget as the run reaches it; the lazy plan keeps every
// pairing qubit of a window local or remaps inside it, and then fusion
// marked at most the part of the window behind the remap. Every cell
// takes some gadgets and falls back on others, and agrees with fused
// single within kernel rounding either way.
func TestGadgetFleets(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	const n = 8
	for trial := 0; trial < 3; trial++ {
		c := circuit.New("fleet", n)
		windows := 0
		for k := 0; k < 6; k++ {
			c.Concat(randomCircuit(rng, n, 5))
			// Low qubits only: local on every fleet under the naive plan.
			c.ExpPauli(rng.Float64(), randomPauli(rng, rng.Perm(n - 2)[:3]))
			c.Concat(randomCircuit(rng, n, 5))
			// X or Y on every qubit: no partition holds all the pairs, and
			// no local block of the lazy plan all the basis changes.
			all := randomPauli(rng, rng.Perm(n))
			for i := range all {
				if all[i].P == 'Z' {
					all[i].P = 'X'
				}
			}
			c.ExpPauli(rng.Float64(), all)
			windows += 2
		}
		ref, err := NewSingleDevice(Config{Seed: 5, Fuse: true}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Compile.Gadgets != windows {
			t.Fatalf("trial %d: fused single marks %d gadgets, want %d", trial, ref.Compile.Gadgets, windows)
		}
		for _, pol := range []sched.Policy{sched.Naive, sched.Lazy} {
			for _, pes := range []int{2, 4} {
				for _, coal := range []bool{false, true} {
					cfg := Config{Seed: 5, PEs: pes, Fuse: true, Sched: pol, Coalesced: coal, Metrics: obs.NewMetrics()}
					b := NewScaleUp(cfg)
					if coal {
						b = NewScaleOut(cfg)
					}
					got, err := b.Run(c)
					if err != nil {
						t.Fatal(err)
					}
					if d := got.State.MaxAbsDiff(ref.State); d > 1e-10 {
						t.Fatalf("trial %d %s pes=%d sched=%s: deviates from fused single by %g", trial, b.Name(), pes, pol, d)
					}
					taken, plan := passes(cfg.Metrics, pes), got.Compile
					fellBack := plan.Gadgets == windows && taken < windows
					if pol == sched.Lazy {
						fellBack = taken == plan.Gadgets && plan.GadgetGates < ref.Compile.GadgetGates
					}
					if taken == 0 || !fellBack {
						t.Fatalf("trial %d %s pes=%d sched=%s: %d windows, the plan holds %d gadgets of %d gates (single: %d), %d executed as one pass",
							trial, b.Name(), pes, pol, windows, plan.Gadgets, plan.GadgetGates, ref.Compile.GadgetGates, taken)
					}
				}
			}
		}
		cfg := Config{Seed: 5, PEs: 4, Fuse: true, Metrics: obs.NewMetrics()}
		th, err := NewThreaded(cfg).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if d := th.State.MaxAbsDiff(ref.State); d != 0 || passes(cfg.Metrics, 1) != windows {
			t.Fatalf("trial %d threaded x4: deviates from fused single by %g, %d of %d windows one pass", trial, d, passes(cfg.Metrics, 1), windows)
		}
	}
}

// TestGadgetCheckpointResume: a gadget is one step, so a checkpoint after
// every step cuts between gadgets and never inside one; a cut inside a
// window whose members ran as gates (a fleet falling back) resumes into
// it gate by gate. Every checkpoint resumes to the uninterrupted fused
// state bit for bit.
func TestGadgetCheckpointResume(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, cell := range []struct {
		name string
		b    func(Config) Backend
		cfg  Config
		c    *circuit.Circuit
	}{
		{"single", NewSingleDevice, Config{}, uccsdPoint(rng, 4)},
		{"single tiled", NewSingleDevice, Config{Tile: true, TileBits: 2}, splicedCircuit(rng, 5, 5)},
		{"scale-out x2", NewScaleOut, Config{PEs: 2, Coalesced: true}, splicedCircuit(rng, 5, 5)},
	} {
		base := cell.cfg
		base.Seed, base.Fuse = 7, true
		ref, err := cell.b(base).Run(cell.c)
		if err != nil {
			t.Fatal(err)
		}
		dir := ckptTestDir(t)
		cfg := base
		cfg.CheckpointEvery, cfg.CheckpointDir = 1, dir
		full, err := cell.b(cfg).Run(cell.c)
		if err != nil {
			t.Fatal(err)
		}
		if d := full.State.MaxAbsDiff(ref.State); d != 0 {
			t.Fatalf("%s: checkpointing moves the state by %g", cell.name, d)
		}
		steps, err := ckpt.CompleteSteps(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(steps) < ref.Compile.Gadgets {
			t.Fatalf("%s: %d checkpoints for %d gadgets", cell.name, len(steps), ref.Compile.Gadgets)
		}
		for _, step := range steps {
			rcfg := base
			rcfg.Resume = ckpt.StepDir(dir, step)
			r, err := cell.b(rcfg).Run(cell.c)
			if err != nil {
				t.Fatalf("%s: resume from step %d: %v", cell.name, step, err)
			}
			if d := r.State.MaxAbsDiff(ref.State); d != 0 {
				t.Fatalf("%s: resume from step %d deviates by %g", cell.name, step, d)
			}
		}
	}
}
