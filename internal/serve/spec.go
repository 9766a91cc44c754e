// Package serve turns the simulator into a long-running multi-tenant
// service: HTTP circuit submission, a bounded job queue with admission
// control keyed on predicted memory footprint, per-tenant quotas with
// fair-share dequeue, and a pool of PE fleets jobs are scheduled onto —
// with preemption of lower-priority jobs through the checkpoint layer
// and elastic resume on a differently-sized fleet.
//
// The same JobSpec type is the CLI's circuit-construction path
// (cmd/svsim builds one from its flags) and the service's wire format
// (POST /v1/jobs), so the two cannot drift.
package serve

import (
	"fmt"
	"strings"

	"svsim/internal/circuit"
	"svsim/internal/core"
	"svsim/internal/perfmodel"
	"svsim/internal/qasm"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
)

// JobSpec describes one simulation job: what to run and how. It is the
// JSON body of POST /v1/jobs and the struct cmd/svsim assembles from
// its flags. Exactly one of Circuit (a named suite workload) and QASM
// (inline OpenQASM 2.0 source) must be set.
type JobSpec struct {
	// Tenant is the submitting tenant; quotas and plan-cache attribution
	// key on it. Empty means the anonymous default tenant.
	Tenant string `json:"tenant,omitempty"`
	// Circuit names a built-in suite workload (see svsim -list).
	Circuit string `json:"circuit,omitempty"`
	// QASM is inline OpenQASM 2.0 source to simulate.
	QASM string `json:"qasm,omitempty"`
	// Name labels a QASM job's circuit (defaults to "qasm").
	Name string `json:"name,omitempty"`
	// Compact runs the compound-gate form of a named workload.
	Compact bool `json:"compact,omitempty"`
	// Backend restricts which fleets may run the job (a row of core's
	// backend table). Empty lets the scheduler pick any fleet.
	Backend string `json:"backend,omitempty"`
	// PEs restricts scheduling to fleets of exactly this PE count; 0
	// lets the scheduler pick.
	PEs int `json:"pes,omitempty"`
	// Sched selects the distributed gate schedule: "naive" (default) or
	// "lazy".
	Sched string `json:"sched,omitempty"`
	// Fuse applies the gate-fusion pass before execution.
	Fuse bool `json:"fuse,omitempty"`
	// TileBits overrides the tile size exponent when > 0; a tile as
	// large as a rank's window runs every gate as its own sweep.
	TileBits int `json:"tile_bits,omitempty"`
	// Seed drives measurement randomness and shot sampling.
	Seed int64 `json:"seed,omitempty"`
	// Shots runs this many shots after the job's run (core.RunShots);
	// the counts land in the job status, keyed by the classical register
	// when the program measures and by the basis state when it does not.
	Shots int `json:"shots,omitempty"`
	// Priority orders dispatch; a strictly higher-priority job may
	// preempt a running lower-priority one (checkpoint + requeue).
	Priority int `json:"priority,omitempty"`
	// ReturnState keeps the final state vector fetchable from
	// GET /v1/jobs/{id}/state (subject to the server's qubit limit).
	ReturnState bool `json:"return_state,omitempty"`
}

// Validate checks the spec's field-level invariants — the checks shared
// by the CLI front end and the service's admission path.
func (s *JobSpec) Validate() error {
	switch {
	case s.Circuit != "" && s.QASM != "":
		return fmt.Errorf("job spec: use either circuit or qasm, not both")
	case s.Circuit == "" && s.QASM == "":
		return fmt.Errorf("job spec: nothing to run — set circuit (a suite name) or qasm (inline source)")
	}
	if _, known := core.LookupBackend(s.Backend); s.Backend != "" && !known {
		return fmt.Errorf("job spec: unknown backend %q (want %s)", s.Backend, strings.Join(core.BackendNames(nil), ", "))
	}
	if s.PEs < 0 || (s.PEs > 0 && s.PEs&(s.PEs-1) != 0) {
		return fmt.Errorf("job spec: pes %d must be a power of two", s.PEs)
	}
	if _, err := s.Policy(); err != nil {
		return err
	}
	if s.TileBits < 0 {
		return fmt.Errorf("job spec: tile_bits %d cannot be negative", s.TileBits)
	}
	if s.Shots < 0 {
		return fmt.Errorf("job spec: shots %d cannot be negative", s.Shots)
	}
	return nil
}

// Policy parses the spec's schedule name ("" means naive).
func (s *JobSpec) Policy() (sched.Policy, error) {
	if s.Sched == "" {
		return sched.Naive, nil
	}
	p, err := sched.ParsePolicy(s.Sched)
	if err != nil {
		return p, fmt.Errorf("job spec: %v", err)
	}
	return p, nil
}

// Load builds the spec's circuit: the named suite workload (compact or
// lowered form) or the parsed inline QASM source.
func (s *JobSpec) Load() (*circuit.Circuit, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Circuit != "" {
		e, err := qasmbench.ByName(s.Circuit)
		if err != nil {
			return nil, fmt.Errorf("job spec: %v", err)
		}
		if s.Compact {
			return e.Compact(), nil
		}
		return e.Build(), nil
	}
	name := s.Name
	if name == "" {
		name = "qasm"
	}
	c, err := qasm.ParseNamed(strings.TrimSuffix(name, ".qasm"), s.QASM)
	if err != nil {
		return nil, fmt.Errorf("job spec: %v", err)
	}
	return c, nil
}

// coreJob maps the spec onto core.JobConfig. The schedule must have
// validated already.
func (s *JobSpec) coreJob() core.JobConfig {
	pol, _ := s.Policy()
	return core.JobConfig{
		Seed:     s.Seed,
		Fuse:     s.Fuse,
		Sched:    pol,
		TileBits: s.TileBits,
	}
}

// ApplyCore overlays the spec's execution settings onto a core.Config —
// the CLI's construction path, so flag-driven and service-driven runs
// configure the engine identically.
func (s *JobSpec) ApplyCore(cfg *core.Config) {
	pol, _ := s.Policy()
	cfg.Seed = s.Seed
	cfg.Fuse = s.Fuse
	cfg.Sched = pol
	cfg.TileBits = s.TileBits
	if s.PEs > 0 {
		cfg.PEs = s.PEs
	}
}

// Estimate is the submit-time resource prediction admission control
// keys on: the state-vector footprint is exact (2^n amplitudes at 16
// bytes, doubled on distributed fleets for exchange staging), and the
// runtime is priced by the perfmodel's single-device cost model.
type Estimate struct {
	Qubits  int     `json:"qubits"`
	Bytes   int64   `json:"bytes"`
	Seconds float64 `json:"seconds"`
	Gates   int     `json:"gates"`
}

// FootprintBytes predicts the resident bytes of simulating n qubits:
// the state vector itself plus, on distributed fleets, the per-PE
// exchange staging buffers that double it.
func FootprintBytes(n int, distributed bool) int64 {
	b := int64(16) << uint(n)
	if distributed {
		b *= 2
	}
	return b
}

// EstimateJob prices a circuit at submit time. distributed selects the
// staging-buffer footprint; the seconds estimate uses the trace-based
// single-device model (a scheduling weight, not a promise) of the tiled
// run the job's tile exponent makes (tileBits <= 0: the one the runtime
// derives), read off the circuit without compiling it, times the runs
// the job makes: its own and, with shots, core.RunShots' (one, or one per
// shot when a shot may collapse differently). fuse prices the diagonal
// runs a fused plan makes.
func EstimateJob(c *circuit.Circuit, tileBits int, distributed bool, shots int, fuse bool) Estimate {
	tr := perfmodel.TiledTraceEstimate(c, tileBits, fuse)
	runs := 1
	if shots > 0 {
		runs += core.ShotRuns(c, shots)
	}
	return Estimate{
		Qubits:  c.NumQubits,
		Bytes:   FootprintBytes(c.NumQubits, distributed),
		Seconds: float64(runs) * perfmodel.EPYC7742.SingleDeviceSeconds(tr),
		Gates:   len(c.Ops),
	}
}
