package core

import (
	"fmt"
	"path/filepath"

	"svsim/internal/ckpt"
	"svsim/internal/compile"
	"svsim/internal/obs"
)

// Elastic restore: continue a checkpointed run on a DIFFERENT fleet size.
// The checkpoint's shards are read and un-permuted into the
// geometry-free logical state vector, and the residual executable stream
// (past the manifest's op cut) is re-planned and executed on the new
// fleet. The warm start and the cut are both
// expressed logically, every gate runs the one kernel core and the
// residual stream's diagonal runs are the original's past the cut (a
// checkpoint cuts at a step boundary, where compile.DiagRuns restarts),
// so a measurement-free circuit ends bit-identical at any fleet size
// under either plan. A fused plan's residual is planned unfused (below),
// so its gadgets and its diagonal runs through cx run gate by gate after
// the shrink, which agrees with the uninterrupted run within rounding. A measurement sums its probability as one balanced tree
// over the physical index space, of which a partition is a subtree:
// under the naive plan that tree is the same at every fleet size, so
// measured runs are bit-identical too, outcomes and state. A lazy plan
// re-planned for the new fleet measures a qubit at another physical
// position and adds the same terms in another order: it replays the same
// RNG stream but agrees with the original fleet only within rounding.
//
// There is no entry point of its own: run takes this route for a
// Config.Resume checkpoint of another grid size, and its recovery loop
// for the Config.Elastic shrink.

// runElastic continues checkpoint m (in dir) on newPEs PEs. cp must be
// the compile at m.PEs: its Circuit is the executable stream the
// manifest's OpsDone cut indexes. Resharding needs that cut, which a v1
// manifest never recorded (ckpt.ElasticRestorable).
func runElastic(backend string, cfg Config, cp *compile.CompiledPlan, dir string, m *ckpt.Manifest, newPEs int, nt newTransport) (*Result, error) {
	if err := validateManifest(m, backend, cp.Circuit, cfg.Sched, cp.PlanFP); err != nil {
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
	// describes, so fusion is off. The plan cache describes the ORIGINAL
	// fleet; it resets. Checkpoints of the elastic run land in their own
	// subdirectory so its manifests (new fleet size, new stream) never
	// mix with the original run's.
	ecfg := cfg
	ecfg.PEs = newPEs
	ecfg.Fuse = false
	ecfg.Plans = nil
	ecfg.Resume = ""
	ecfg.Elastic = false // one shrink per failure; the rerun recovers normally
	if cfg.CheckpointDir != "" {
		ecfg.CheckpointDir = filepath.Join(cfg.CheckpointDir, fmt.Sprintf("elastic-p%d", newPEs))
	}
	res, err := run(backend, ecfg, residual, ws, nt)
	if err != nil {
		return nil, err
	}
	res.PEs = newPEs
	return res, nil
}
