package core

import (
	"fmt"
	"sync"

	"svsim/internal/circuit"
	"svsim/internal/compile"
	"svsim/internal/sched"
	"svsim/internal/statevec"
)

// Fleet is a reusable, re-entrant execution resource: one backend at one
// fixed geometry (PE count, kernel style, topology, telemetry hooks),
// constructed once and handed many jobs. It is the unit the multi-tenant
// service schedules onto — the long-lived counterpart of the one-shot
// Backend.Run path, which rebuilds worker pools and configuration per
// call. Concurrent Run calls are serialized: a fleet executes one job at
// a time, and callers that need parallelism hold several fleets.
type Fleet struct {
	mu      sync.Mutex
	backend string
	base    Config
	pool    *statevec.Pool // persistent worker pool (threaded backend)
	jobs    int64          // jobs completed over the fleet's lifetime
	closed  bool
}

// JobConfig is the per-job slice of Config: everything a submitter may
// vary between jobs on the same fleet. Fields left zero fall back to
// the fleet's base configuration.
type JobConfig struct {
	// Seed drives measurement randomness for this job.
	Seed int64
	// Fuse runs the gate-fusion pass on this job's circuit.
	Fuse bool
	// Sched selects the distributed gate schedule for this job.
	Sched sched.Policy
	// Tile enables cache-blocked execution (single-node backends).
	Tile bool
	// TileBits overrides the tile size exponent when > 0.
	TileBits int
	// Plans, when non-nil, overrides the fleet's plan cache — the
	// service passes a per-tenant view of one shared cache here so hit
	// accounting lands on the submitting tenant.
	Plans *compile.Cache
	// CheckpointEvery/CheckpointDir configure coordinated checkpoints
	// for this job (the service's preemption mechanism rides on them).
	CheckpointEvery int
	CheckpointDir   string
	// Resume continues the job from a checkpoint this fleet's backend
	// took on a fleet of any size (Config.Resume): shards load in place
	// at this fleet's PE count and are resharded from another.
	Resume string
	// Stop, when non-nil, is this job's preemption latch: triggering it
	// makes the run write a final checkpoint at the next boundary and
	// unwind with ErrInterrupted.
	Stop *StopLatch
	// MaxRestarts bounds restarts from the latest checkpoint after a PE
	// failure.
	MaxRestarts int
}

// NewFleet validates the geometry and constructs the fleet's persistent
// resources (the threaded backend's worker pool). cfg carries the
// fleet-lifetime settings: PEs, Style, Coalesced, Topology, telemetry
// sinks, fault injection, and timeouts. Per-job settings arrive later
// through JobConfig; job-shaped fields set on cfg (Seed, Resume,
// checkpointing, Stop) are ignored.
func NewFleet(backend string, cfg Config) (*Fleet, error) {
	rw, err := lookup(backend)
	if err != nil {
		return nil, err
	}
	if cfg.PEs < 1 {
		cfg.PEs = 1
	}
	if cfg.PEs&(cfg.PEs-1) != 0 {
		return nil, fmt.Errorf("core: fleet PE count %d is not a power of two", cfg.PEs)
	}
	f := &Fleet{backend: backend, base: cfg}
	if rw.pooled {
		f.pool = statevec.NewPool(cfg.PEs)
	}
	return f, nil
}

// Backend reports the fleet's backend name.
func (f *Fleet) Backend() string { return f.backend }

// PEs reports the fleet's PE/worker count.
func (f *Fleet) PEs() int {
	if f.base.PEs < 1 {
		return 1
	}
	return f.base.PEs
}

// Jobs reports how many jobs the fleet has completed (success or
// failure) since construction.
func (f *Fleet) Jobs() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.jobs
}

// config merges the fleet's base configuration with one job's settings.
func (f *Fleet) config(job JobConfig) Config {
	cfg := f.base
	cfg.Pool = f.pool
	cfg.Seed = job.Seed
	cfg.Fuse = job.Fuse
	cfg.Sched = job.Sched
	cfg.Tile = job.Tile
	cfg.TileBits = job.TileBits
	if job.Plans != nil {
		cfg.Plans = job.Plans
	}
	cfg.CheckpointEvery = job.CheckpointEvery
	cfg.CheckpointDir = job.CheckpointDir
	cfg.Resume = job.Resume
	cfg.Stop = job.Stop
	cfg.MaxRestarts = job.MaxRestarts
	return cfg
}

// Run executes one job on the fleet. Calls serialize; the per-job state
// (state vector, RNG, symmetric heap) is built for the job and released
// with it, while the fleet's persistent resources (worker pool, plan
// cache, telemetry) carry across jobs.
func (f *Fleet) Run(c *circuit.Circuit, job JobConfig) (*Result, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, fmt.Errorf("core: fleet %s/%d is closed", f.backend, f.PEs())
	}
	backend, err := NewBackend(f.backend, f.config(job))
	if err != nil {
		return nil, err
	}
	res, err := backend.Run(c)
	f.jobs++
	return res, err
}

// Close releases the fleet's persistent resources. Waits for an
// in-flight job to finish; further Run calls fail.
func (f *Fleet) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return
	}
	f.closed = true
	if f.pool != nil {
		f.pool.Close()
		f.pool = nil
	}
}
