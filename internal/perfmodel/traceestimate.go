package perfmodel

import (
	"math/bits"

	"svsim/internal/circuit"
	"svsim/internal/compile"
	"svsim/internal/gate"
)

// TraceEstimate predicts the kernel-work trace of a circuit without
// simulating it, mirroring the per-kind amplitude counts of the statevec
// kernels. It makes paper-scale workloads (the 24-qubit multi-million-gate
// VQE circuit of §5) analyzable: the figure harness validates it against
// measured statistics on small circuits. A diagonal run (compile.DiagRuns,
// the stretches the runtime merges) is priced as the runtime executes it:
// all of its gates, one pass over the amplitudes it visits. Every other
// gate is a sweep of its own: the per-gate path, which a run takes when
// its tile covers the state (TileBits = n).
func TraceEstimate(c *circuit.Circuit) Trace {
	return traceWalk(c, nil, false)
}

// TiledTraceEstimate is TraceEstimate for the run one rank makes by
// default, whose state tiles from n = 14 qubits: ops are grouped as
// compile.CircuitTilePlan groups them (tileBits <= 0 derives the tile size
// as the runtime does), and a tiled group — a stretch of ops whose
// non-diagonal targets sit below the tile exponent — streams the state
// once however many gates it holds, its amplitudes visited in
// cache-resident tiles (TileAmps). The classical prefix, which a fresh
// run folds into its initial basis state, costs nothing; the ops outside
// a tiled group past it are priced per gate. fused prices the runs a
// fused plan makes, whose windows see through cx.
func TiledTraceEstimate(c *circuit.Circuit, tileBits int, fused bool) Trace {
	return traceWalk(c, compile.CircuitTilePlan(c, tileBits, fused), fused)
}

// traceWalk prices the circuit's ops in order, one diagonal run or gate
// at a time under the fused or the unfused rule; tp, when non-nil, names
// the tiled groups.
func traceWalk(c *circuit.Circuit, tp *compile.TilePlan, fused bool) Trace {
	dim := int64(1) << uint(c.NumQubits)
	tr := Trace{StateBytes: dim * 16}
	runs := compile.DiagRuns(c, fused)
	var groups []compile.TileGroup
	i := 0
	if tp != nil {
		// The groups start past the prefix and cover every op after it;
		// the prefix stops at the first run, so no run starts inside it.
		groups, i = tp.Groups, len(c.Ops)
		if len(groups) > 0 {
			i = groups[0].Start
		}
	}
	for i < len(c.Ops) {
		for len(groups) > 0 && groups[0].End <= i {
			groups = groups[1:]
		}
		tiled := len(groups) > 0 && groups[0].Tiled && groups[0].Start <= i
		if tiled && groups[0].Start == i {
			tr.Bytes += dim * 16
		}
		gates, amps := int64(1), opAmps(&c.Ops[i].G, dim)
		if len(runs) > 0 && runs[0].Op == i {
			gates, amps = int64(runs[0].Gates), dim>>uint(bits.OnesCount64(runs[0].Pinned))
			runs = runs[1:]
		}
		tr.Gates += gates
		tr.Amps += amps
		if tiled {
			tr.TileAmps += amps
		} else {
			tr.Bytes += amps * 16
		}
		i += int(gates)
	}
	return tr
}

// opAmps is the amplitudes one gate's kernel visits on a state of dim.
func opAmps(g *gate.Gate, dim int64) int64 {
	switch g.Kind {
	case gate.ID, gate.BARRIER:
		return 0
	case gate.Z, gate.S, gate.SDG, gate.T, gate.TDG, gate.U1:
		return dim >> 1
	case gate.CZ, gate.CU1, gate.CS, gate.CSDG, gate.CT, gate.CTDG:
		return dim >> 2
	case gate.CX, gate.CY, gate.CH, gate.SWAP, gate.CRX, gate.CRY, gate.CRZ,
		gate.CU3, gate.RZZ:
		return dim >> 1
	case gate.CCX, gate.CSWAP:
		return dim >> 2
	case gate.C3X, gate.C3SQRTX:
		return dim >> 3
	case gate.C4X:
		return dim >> 4
	case gate.RCCX, gate.RC3X:
		return dim // generic matrix path touches every amplitude
	case gate.MEASURE, gate.RESET:
		return dim
	default:
		// X, Y, H, SX, SXDG, RX, RY, RZ, U2, U3, RXX, GPHASE.
		return dim
	}
}
