package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"svsim/internal/circuit"
	"svsim/internal/core"
)

func validOpts() runOpts {
	return runOpts{backend: "scale-out", pes: 4, sched: "naive", seed: 1, opRetries: 8}
}

func TestFlagValidation(t *testing.T) {
	dir := t.TempDir()
	regular := filepath.Join(dir, "regular")
	if err := os.WriteFile(regular, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// A threaded checkpoint records its one rank, whatever -pes workers
	// wrote it.
	threaded := t.TempDir()
	if _, err := core.Run("threaded", core.Config{PEs: 4, CheckpointEvery: 4, CheckpointDir: threaded}, probeCircuit()); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*runOpts)
		want   string // empty = valid
	}{
		{"defaults", func(o *runOpts) {}, ""},
		{"checkpointing on", func(o *runOpts) {
			o.checkpointEvery = 10
			o.checkpointDir = dir
			o.maxRestarts = 2
		}, ""},
		{"fault spec", func(o *runOpts) { o.faultSpec = "kill:rank=1:op=barrier:after=30" }, ""},
		{"barrier deadline", func(o *runOpts) { o.barrierTimeout = 5 * time.Second }, ""},
		{"negative pes", func(o *runOpts) { o.pes = -2 }, "at least 1"},
		{"non-power-of-two pes", func(o *runOpts) { o.pes = 6 }, "power of two"},
		{"interval without dir", func(o *runOpts) { o.checkpointEvery = 10 }, "-checkpoint-dir"},
		{"negative interval", func(o *runOpts) {
			o.checkpointEvery = -1
			o.checkpointDir = dir
		}, "positive"},
		{"restarts without dir", func(o *runOpts) { o.maxRestarts = 3 }, "-checkpoint-dir"},
		{"checkpoint on remap", func(o *runOpts) { // the remap baseline: mpi under the lazy plan
			o.backend, o.sched = "mpi", "lazy"
			o.checkpointEvery = 10
			o.checkpointDir = dir
		}, ""},
		{"fault and elastic on remap", func(o *runOpts) {
			o.backend, o.sched = "mpi", "lazy"
			o.faultSpec = "kill:rank=1:op=barrier:after=30"
			o.elastic = true
			o.checkpointEvery = 10
			o.checkpointDir = dir
			o.maxRestarts = 1
		}, ""},
		{"checkpoint on unknown backend", func(o *runOpts) {
			o.backend = "nonesuch"
			o.checkpointEvery = 10
			o.checkpointDir = dir
		}, `unknown backend "nonesuch" (want single, threaded`},
		{"unknown backend", func(o *runOpts) { o.backend = "nonesuch" }, `unknown backend "nonesuch"`},
		{"coalesced on scale-out", func(o *runOpts) { o.coalesced = true }, ""},
		{"coalesced on scale-up", func(o *runOpts) {
			o.backend = "scale-up"
			o.coalesced = true
		}, "scale-out"},
		{"coalesced on mpi", func(o *runOpts) {
			o.backend = "mpi"
			o.coalesced = true
		}, "-coalesced"},
		{"elastic on single", func(o *runOpts) {
			o.backend = "single"
			o.elastic = true
			o.checkpointEvery = 10
			o.checkpointDir = dir
			o.maxRestarts = 1
		}, "distributed"},
		{"elastic without restarts", func(o *runOpts) {
			o.backend = "scale-out"
			o.elastic = true
			o.checkpointEvery = 10
			o.checkpointDir = dir
		}, "-max-restarts"},
		{"resume threaded x4 on -pes 4", func(o *runOpts) {
			o.backend = "threaded"
			o.resume = threaded
		}, ""},
		{"fault on single", func(o *runOpts) {
			o.backend = "single"
			o.faultSpec = "kill:rank=0:op=barrier:after=1"
		}, "fault surface"},
		{"bad fault spec", func(o *runOpts) { o.faultSpec = "explode:everything" }, "-fault"},
		{"negative barrier timeout", func(o *runOpts) { o.barrierTimeout = -time.Second }, "negative"},
		{"negative retries", func(o *runOpts) { o.opRetries = -1 }, "negative"},
		{"resume from nowhere", func(o *runOpts) { o.resume = dir + "/absent" }, "-resume"},
		{"obs-dir fresh path", func(o *runOpts) { o.obsDir = filepath.Join(dir, "obs", "run1") }, ""},
		{"obs-dir is a file", func(o *runOpts) { o.obsDir = regular }, "-obs-dir " + regular},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := validOpts()
			tc.mutate(&o)
			err := o.validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// probeCircuit is a small 5-qubit circuit that crosses partitions.
func probeCircuit() *circuit.Circuit {
	c := circuit.New("probe", 5)
	c.H(0)
	for q := 1; q < 5; q++ {
		c.CX(0, q)
	}
	c.H(1).H(2).CX(1, 3).CX(2, 4).H(0)
	return c
}

// TestResumeSchedMismatchRejected writes a real checkpoint and checks
// the flag-level cross-validation catches a schedule mismatch, while
// another -pes reshards it to the uninterrupted run's state.
func TestResumeSchedMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	c := probeCircuit()
	cfg := core.Config{PEs: 4, Seed: 1, CheckpointEvery: 4, CheckpointDir: dir}
	if _, err := core.NewScaleOut(cfg).Run(c); err != nil {
		t.Fatal(err)
	}
	o := validOpts()
	o.resume = dir
	if err := o.validate(); err != nil {
		t.Fatalf("matching resume rejected: %v", err)
	}
	o.sched = "lazy"
	err := o.validate()
	if err == nil || !strings.Contains(err.Error(), "-sched") {
		t.Fatalf("error %v, want mention of -sched", err)
	}
	o = validOpts()
	o.resume = dir
	o.pes = 8
	if err := o.validate(); err != nil {
		t.Fatalf("reshard onto -pes 8 rejected: %v", err)
	}
	ref, err := core.NewScaleOut(core.Config{PEs: 4, Seed: 1}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.NewScaleOut(core.Config{PEs: 8, Seed: 1, Resume: dir}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.State.MaxAbsDiff(ref.State); d != 0 {
		t.Fatalf("resharded onto 8 PEs: state deviates by %g", d)
	}
}
