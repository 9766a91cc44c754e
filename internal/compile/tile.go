package compile

import (
	"svsim/internal/circuit"
	"svsim/internal/sched"
)

// Tile planning for cache-blocked execution (the single-node analogue of
// the paper's one-homogeneous-pass design): instead of sweeping the full
// state vector once per gate, the executor walks cache-resident tiles of
// the SoA amplitude arrays and applies a whole run of gates to each tile
// before moving on, so a run of G gates costs one memory sweep instead
// of G.
//
// A gate can join a tiled run only if every amplitude it couples stays
// inside one tile. That holds when all of its non-diagonal target bits
// lie below the tile boundary: a target at bit t pairs amplitudes
// 2^t apart, so targets below TileBits keep every pair tile-local.
// Element-wise (diagonal) gates and control bits are position-free —
// they read the full basis index, never couple amplitudes — so they are
// compatible at any position. Everything else (a "straddling" gate, or
// a non-unitary op that needs the measurement RNG) breaks the run and
// executes as its own full per-gate pass.

// DefaultTileBits is the starting tile size exponent: 2^13 amplitude
// pairs of float64 real+imag is 128 KiB of SoA data per tile, small
// enough to stay resident in a per-core L2 while a gate run replays
// over it.
const DefaultTileBits = 13

// MaxTileBits caps how far the tile-size derivation may widen a tile to
// absorb straddling gates: 2^14 amplitudes is 256 KiB, the largest
// footprint that still plausibly fits a per-core cache.
const MaxTileBits = 14

// maxGroupRuns caps the diagonal runs of one tiled group. A memory bound:
// every run of a group stays prepared while the tiles replay, at up to
// 64 KiB of tables each, so a rank's run scratch stays under 8 MiB
// whatever the circuit (the lowered qft_n15 holds 78 two-gate runs in one
// group, a few hundred bytes each).
const maxGroupRuns = 128

// TileGroup is a contiguous run of plan steps [Start, End) that the
// tiled executor treats as one unit: a Tiled group replays all of its
// gates over each tile in a single pass; a non-tiled group executes
// step by step on the per-gate path.
type TileGroup struct {
	// Start and End delimit the half-open step-index range into
	// Plan.Steps covered by this group.
	Start, End int
	// Tiled marks a group executed as one cache-blocked pass. Non-tiled
	// groups hold one member, executed as the plain step loop would (a
	// straddling or non-unitary gate, a remap, a Pauli gadget, or a
	// compatible gate or diagonal run with no neighbour to share the pass
	// with).
	Tiled bool
}

// TilePlan is the cache-blocking schedule for one CompiledPlan: the tile
// size and a partition of the plan's step list into groups. Groups cover
// every step exactly once and never span a remap or alias step, so the
// tile structure always respects schedule-block boundaries.
type TilePlan struct {
	// TileBits is the tile size exponent: tiles hold 2^TileBits
	// amplitudes and are aligned to multiples of their size.
	TileBits int
	// Groups partitions Plan.Steps in order.
	Groups []TileGroup
	// Straddlers counts gate steps excluded from tiled runs because a
	// non-diagonal target sits at or above TileBits.
	Straddlers int
}

// BuildTilePlan derives the cache-blocking schedule for a compiled plan.
// tileBits <= 0 derives the tile size from the plan's target-qubit
// strides (see deriveTileBits); an explicit value is clamped to the
// partition's local bits. The walk tracks the logical-to-physical
// permutation across remap and alias steps, so compatibility is judged
// against the physical bit positions gates actually execute at.
func BuildTilePlan(cp *CompiledPlan, tileBits int) *TilePlan {
	steps := cp.Plan.Steps
	maxT := stepMaxTargets(cp)
	if tileBits <= 0 {
		tileBits = deriveTileBits(cp.LocalBits, maxT)
	}
	if tileBits > cp.LocalBits {
		tileBits = cp.LocalBits
	}
	if tileBits < 1 {
		tileBits = 1
	}
	tp := &TilePlan{TileBits: tileBits}
	ri := 0 // first run not yet behind the walk
	// gadgetAt reports the Pauli gadget starting at step i. A gadget is
	// one pass over the whole state already, pairing amplitudes a tile
	// apart: it closes the group before it and is a group of its own.
	gadgetAt := func(i int) *Run {
		for ri < len(cp.Runs) && cp.Runs[ri].Step < i {
			ri++
		}
		if ri < len(cp.Runs) && cp.Runs[ri].Step == i && cp.Runs[ri].Pauli != nil {
			return &cp.Runs[ri]
		}
		return nil
	}
	for i := 0; i < len(steps); {
		if g := gadgetAt(i); g != nil {
			tp.Groups = append(tp.Groups, TileGroup{Start: i, End: i + g.Gates})
			i += g.Gates
			continue
		}
		if !tileCompatible(cp, steps, i, maxT, tileBits) {
			if steps[i].Kind == sched.StepGate && stepUnitary(cp, &steps[i]) && maxT[i] >= tileBits {
				tp.Straddlers++
			}
			tp.Groups = append(tp.Groups, TileGroup{Start: i, End: i + 1})
			i++
			continue
		}
		// A diagonal run is one member of the group; a run past the cap
		// closes the group and opens the next.
		j, members, groupRuns := i, 0, 0
		for j < len(steps) && tileCompatible(cp, steps, j, maxT, tileBits) && gadgetAt(j) == nil {
			if ri < len(cp.Runs) && cp.Runs[ri].Step == j {
				if groupRuns == maxGroupRuns {
					break
				}
				groupRuns++
				j += cp.Runs[ri].Gates
			} else {
				j++
			}
			members++
		}
		// A lone compatible gate (or run) gains nothing from tile
		// iteration: replaying it over every tile is exactly a full sweep.
		tp.Groups = append(tp.Groups, TileGroup{Start: i, End: j, Tiled: members >= 2})
		i = j
	}
	return tp
}

// stepMaxTargets returns, per plan step, the highest physical
// non-diagonal target bit of the step's gate, or -1 for steps without
// locality demands (non-gate steps, element-wise gates, MEASURE/RESET).
// The permutation is replayed across remap and alias steps exactly as
// the distributed executors do.
func stepMaxTargets(cp *CompiledPlan) []int {
	steps := cp.Plan.Steps
	maxT := make([]int, len(steps))
	perm := circuit.IdentityPermutation(cp.NumQubits)
	for si := range steps {
		step := &steps[si]
		maxT[si] = -1
		switch step.Kind {
		case sched.StepRemap:
			for _, sw := range step.Swaps {
				perm.SwapPhysical(sw.Global, sw.Local)
			}
		case sched.StepAlias:
			perm.SwapLogical(step.A, step.B)
		case sched.StepGate:
			g := &cp.Circuit.Ops[step.Op].G
			if !g.Kind.Unitary() || g.Kind.Diagonal() {
				continue
			}
			for _, t := range g.Targets() {
				if pos := perm[int(t)]; pos > maxT[si] {
					maxT[si] = pos
				}
			}
		}
	}
	return maxT
}

// deriveTileBits picks the tile size from the plan's target-qubit
// strides: start at the cache-friendly default and widen — one bit at a
// time, up to MaxTileBits — only while each extra bit strictly reduces
// the number of straddling gates. A straddler costs a full extra state
// sweep, so trading a 2x larger (still cache-resident) tile for fewer
// sweeps is always worth it; widening past the last profitable stride
// is not.
func deriveTileBits(localBits int, maxT []int) int {
	straddlers := func(tb int) int {
		n := 0
		for _, t := range maxT {
			if t >= tb {
				n++
			}
		}
		return n
	}
	tb := DefaultTileBits
	if tb > localBits {
		return localBits
	}
	limit := MaxTileBits
	if limit > localBits {
		limit = localBits
	}
	for tb < limit && straddlers(tb+1) < straddlers(tb) {
		tb++
	}
	return tb
}

// tileCompatible reports whether plan step i can join a tiled run at the
// given tile size: a unitary gate step whose non-diagonal targets all
// sit below tileBits. Controls may live anywhere (they gate whole tiles
// on or off without coupling amplitudes), as may the targets of
// element-wise gates. MEASURE and RESET need the runtime RNG and
// renormalize globally; remap and alias steps move data between blocks —
// all of those break the run.
func tileCompatible(cp *CompiledPlan, steps []sched.Step, i int, maxT []int, tileBits int) bool {
	if steps[i].Kind != sched.StepGate {
		return false
	}
	if !stepUnitary(cp, &steps[i]) {
		return false
	}
	return maxT[i] < tileBits
}

// stepUnitary reports whether a gate step's op is unitary (BARRIER
// included: it is a scheduling no-op, harmless inside a tiled run).
func stepUnitary(cp *CompiledPlan, step *sched.Step) bool {
	k := cp.Circuit.Ops[step.Op].G.Kind
	return k.Unitary()
}
