package core

import (
	"fmt"
	"strconv"
	"time"

	"svsim/internal/compile"
	"svsim/internal/gate"
	"svsim/internal/obs"
	"svsim/internal/statevec"
)

// Cache-blocked (tiled) execution for the single-node backends. The
// per-gate loops sweep the full state vector once per gate; with
// Config.Tile the compiled plan carries a TilePlan that partitions the
// schedule into groups, and each tiled group executes as ONE homogeneous
// pass: every cache-resident tile of the SoA amplitude arrays has the
// whole gate run replayed over it before the executor moves on. Memory
// traffic per group drops from gates×state to 1×state; everything the
// planner excluded (straddling gates, measurements, short runs) runs on
// the per-gate path. A tile is a window of the state and runs the same
// kernels (statevec/window.go), so the final state is bit-identical to a
// per-gate run on any single-node backend.

// runTiledGroup executes one tiled group as a single homogeneous pass.
// ops lists the op indices whose conditions passed (conditions are
// stable inside a group: the planner never admits a MEASURE). With a
// pool the tile index space is split across the workers — parallelism
// over tiles, not over one gate's index space; without one the tiles run
// in order. Either way each tile runs the same kernels as the per-gate
// path. Returns the bytes charged.
func runTiledGroup(st *statevec.State, pool *statevec.Pool, cp *compile.CompiledPlan, ops []int) int64 {
	if len(ops) == 0 {
		return 0
	}
	tb := uint(cp.Tiles.TileBits)
	tdim := 1 << tb
	numTiles := st.Dim >> tb
	gates := int64(0)
	for _, oi := range ops {
		if cp.Circuit.Ops[oi].G.Kind != gate.BARRIER {
			gates++
		}
	}
	tile := func(t int) (amps, flops int64) {
		lo := t << tb
		for _, oi := range ops {
			a, f := st.ApplyTile(&cp.Circuit.Ops[oi].G, lo, lo+tdim)
			amps += a
			flops += f
		}
		return amps, flops
	}
	var amps, flops int64
	if pool != nil {
		amps, flops = pool.ForTiles(numTiles, tile)
	} else {
		for t := 0; t < numTiles; t++ {
			a, f := tile(t)
			amps += a
			flops += f
		}
	}
	st.Stats.AddTileWork(gates, amps, flops)
	st.Stats.AddSweep(int64(st.Dim))
	return int64(st.Dim) * 16
}

// activeOps filters a group's ops through their classical conditions,
// evaluated once up front — valid because tiled groups contain no
// MEASURE, so the classical register cannot change mid-group.
func activeOps(cp *compile.CompiledPlan, grp compile.TileGroup, cbits uint64) []int {
	ops := make([]int, 0, grp.End-grp.Start)
	for si := grp.Start; si < grp.End; si++ {
		oi := cp.Plan.Steps[si].Op
		if condSatisfied(cp.Circuit.Ops[oi].Cond, cbits) {
			ops = append(ops, oi)
		}
	}
	return ops
}

// tiledGroupObs wraps runTiledGroup with the observability sinks: one
// span per group in the "tile" phase (individual gate latencies do not
// exist inside a homogeneous pass) and the per-block bytes counter.
func tiledGroupObs(st *statevec.State, pool *statevec.Pool, cp *compile.CompiledPlan,
	grp compile.TileGroup, cbits uint64, trk *obs.Track, m *obs.Metrics, block int) {
	ops := activeOps(cp, grp, cbits)
	if trk == nil && m == nil {
		runTiledGroup(st, pool, cp, ops)
		return
	}
	g0 := time.Now()
	bytes := runTiledGroup(st, pool, cp, ops)
	g1 := time.Now()
	if trk != nil {
		trk.SpanAt(fmt.Sprintf("tile run (%d gates)", len(ops)), g0, g1, obs.SpanArgs{
			Kind: "tile", Phase: obs.PhaseTile, Block: block,
		})
	}
	if m != nil {
		m.Counter(obs.MetricBytesTouched + ".block" + strconv.Itoa(block)).Add(bytes)
	}
}

// runTiled drives tile mode for the single-node backends (pool nil:
// single-device; pool set: threaded, parallel over tiles with one barrier
// per group instead of per gate). Tiled groups run as homogeneous passes;
// every other step (straddlers, measurements, short runs) goes through
// exec — the backend's per-gate applier, taking an op index — exactly as
// the per-gate loop would, tracing and checkpoints included. Checkpoint
// cadence quantizes to group boundaries — mid-pass state is not a valid
// cut point — and a resume that lands inside a tiled group finishes that
// group per-gate (bit-identical: same kernels) before re-entering tiled
// execution at the next group.
func runTiled(cp *compile.CompiledPlan, rt *rtctx, pool *statevec.Pool, exec func(op int),
	cw *ckptWriter, trk *obs.Track, gm *gateObs, m *obs.Metrics, startGate int, stop *StopLatch) error {
	st := rt.st
	startBytes := st.Stats.BytesTouched
	startSweeps := st.Stats.Sweeps
	boundary := func(t int) error {
		if err := stopLocal(stop, cw, st, t, startGate, rt.cbits, rt.draws); err != nil {
			return err
		}
		if t > startGate && cw.due(t) {
			return cw.writeLocal(st, t, t, rt.cbits, rt.draws)
		}
		return nil
	}
	perGate := func(t int) error {
		if err := boundary(t); err != nil {
			return err
		}
		oi := cp.Plan.Steps[t].Op
		op := &cp.Circuit.Ops[oi]
		if !condSatisfied(op.Cond, rt.cbits) {
			return nil
		}
		if trk == nil && gm == nil {
			exec(oi)
			return nil
		}
		g0 := time.Now()
		exec(oi)
		g1 := time.Now()
		gm.observe(op.G.Kind, g1.Sub(g0))
		if trk != nil {
			trk.SpanAt(gateLabel(&op.G), g0, g1, obs.SpanArgs{
				Kind: op.G.Kind.String(), Qubits: qubitList(&op.G),
			})
		}
		return nil
	}
	for _, grp := range cp.Tiles.Groups {
		if grp.End <= startGate {
			continue
		}
		if !grp.Tiled || startGate > grp.Start {
			for t := max(grp.Start, startGate); t < grp.End; t++ {
				if err := perGate(t); err != nil {
					return err
				}
			}
			continue
		}
		if err := boundary(grp.Start); err != nil {
			return err
		}
		tiledGroupObs(st, pool, cp, grp, rt.cbits, trk, m, 0)
	}
	if m != nil {
		m.Counter(obs.MetricBytesTouched).Add(st.Stats.BytesTouched - startBytes)
		m.Counter(obs.MetricTileSweeps).Add(st.Stats.Sweeps - startSweeps)
	}
	return nil
}
