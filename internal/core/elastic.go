package core

import (
	"fmt"
	"path/filepath"

	"svsim/internal/circuit"
	"svsim/internal/ckpt"
	"svsim/internal/compile"
	"svsim/internal/obs"
	"svsim/internal/sched"
)

// Elastic restore: continue a checkpointed run on a DIFFERENT fleet size.
// The checkpoint's shards are materialized through their delta chains,
// un-permuted into the geometry-free logical state vector, and the
// residual executable stream (past the manifest's op cut) is re-planned
// and executed on the new fleet. The warm start and the cut are both
// expressed logically, every gate runs the one kernel core and the
// residual stream's diagonal runs are the original's past the cut (a
// checkpoint cuts at a step boundary, where compile.DiagRuns restarts),
// so a measurement-free circuit ends bit-identical at any fleet size
// under either plan. A measurement sums its probability as one balanced tree
// over the physical index space, of which a partition is a subtree:
// under the naive plan that tree is the same at every fleet size, so
// measured runs are bit-identical too, outcomes and state. A lazy plan
// re-planned for the new fleet measures a qubit at another physical
// position and adds the same terms in another order: it replays the same
// RNG stream but agrees with the original fleet only within rounding.

// RunElastic resumes the checkpoint under resume (a ckpt-<step>
// directory or a base directory) on newPEs processing elements. backend
// names the distributed backend the checkpoint was taken by; c is the
// SAME source circuit the original run executed. cfg supplies the run
// settings for the residual execution; its PEs field is ignored in
// favor of newPEs.
func RunElastic(backend string, cfg Config, c *circuit.Circuit, resume string, newPEs int) (*Result, error) {
	rw, err := lookup(backend)
	if err != nil {
		return nil, err
	}
	if !rw.Distributed {
		return nil, fmt.Errorf("core: backend %q runs on one rank; elastic restore needs a distributed backend", backend)
	}
	cfg, done := rw.configure(cfg)
	defer done()
	if err := checkCircuit(c, 64); err != nil {
		return nil, err
	}
	dir, m, err := resolveResume(resume)
	if err != nil {
		return nil, err
	}
	if m.Backend != backend {
		return nil, fmt.Errorf("core: checkpoint was taken by backend %q, elastic restore requested for %q", m.Backend, backend)
	}
	if m.NumQubits != c.NumQubits {
		return nil, fmt.Errorf("core: checkpoint holds %d qubits, circuit has %d", m.NumQubits, c.NumQubits)
	}
	if m.Sched != schedName(cfg.Sched) {
		return nil, fmt.Errorf("core: checkpoint used sched %q, run has %q", m.Sched, schedName(cfg.Sched))
	}
	if err := checkPEs(m.PEs, c.NumQubits); err != nil {
		return nil, fmt.Errorf("core: checkpoint fleet size: %w", err)
	}
	// Re-derive the executable stream the checkpointed run compiled (same
	// circuit, same fusion settings, at the ORIGINAL fleet size) so the
	// manifest's op cut indexes into the right stream.
	cp, _, err := compileCircuit(cfg, c, m.PEs)
	if err != nil {
		return nil, err
	}
	if got := ckpt.Fingerprint(cp.Circuit); got != m.CircuitHash {
		return nil, fmt.Errorf("core: checkpoint was taken for executable stream %016x, current compile produced %016x", m.CircuitHash, got)
	}
	if m.PlanFingerprint != 0 && cp.PlanFP != 0 && m.PlanFingerprint != cp.PlanFP {
		return nil, fmt.Errorf("core: checkpoint was taken under plan %016x, current compile produced %016x", m.PlanFingerprint, cp.PlanFP)
	}
	return runElastic(backend, cfg, cp, dir, m, newPEs, rw.nt)
}

// runElastic executes the residual of an already-validated checkpoint on
// newPEs PEs. cp must be the compile of the original run (its Circuit is
// the executable stream the manifest's OpsDone cut indexes).
func runElastic(backend string, cfg Config, cp *compile.CompiledPlan, dir string, m *ckpt.Manifest, newPEs int, nt newTransport) (*Result, error) {
	if err := checkPEs(newPEs, cp.Circuit.NumQubits); err != nil {
		return nil, err
	}
	ws, err := ckpt.ReshardLogical(dir, m)
	if err != nil {
		return nil, err
	}
	residual, err := ckpt.ResidualCircuit(cp.Circuit, m)
	if err != nil {
		return nil, err
	}
	cfg.Flight.Record(-1, obs.EventElastic,
		fmt.Sprintf("re-shard %s: %d -> %d PEs at op %d", dir, m.PEs, newPEs, m.OpsDone), int64(newPEs))
	// The residual is the already-fused executable stream: re-fusing
	// would merge across the cut and change the stream the new plan
	// describes, so fusion is off. Topology and the plan cache describe
	// the ORIGINAL fleet; both reset. Checkpoints of the elastic run
	// land in their own subdirectory so its manifests (new fleet size,
	// new stream) never mix with the original chain.
	ecfg := cfg
	ecfg.PEs = newPEs
	ecfg.Fuse = false
	ecfg.Topology = sched.Topology{}
	ecfg.Plans = nil
	ecfg.Resume = ""
	ecfg.Init = ws
	ecfg.Elastic = false // one shrink per failure; the rerun recovers normally
	if cfg.CheckpointDir != "" {
		ecfg.CheckpointDir = filepath.Join(cfg.CheckpointDir, fmt.Sprintf("elastic-p%d", newPEs))
	}
	res, err := run(backend, ecfg, residual, nt)
	if err != nil {
		return nil, err
	}
	res.PEs = newPEs
	return res, nil
}
