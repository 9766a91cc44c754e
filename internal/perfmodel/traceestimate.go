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
// all of its gates, one pass over the amplitudes it visits.
func TraceEstimate(c *circuit.Circuit) Trace {
	dim := int64(1) << uint(c.NumQubits)
	tr := Trace{StateBytes: dim * 16}
	runs := compile.DiagRuns(c)
	for i := 0; i < len(c.Ops); i++ {
		if len(runs) > 0 && runs[0].Op == i {
			amps := dim >> uint(bits.OnesCount64(runs[0].Pinned))
			tr.Gates += int64(runs[0].Gates)
			tr.Amps += amps
			tr.Bytes += amps * 16
			i += runs[0].Gates - 1
			runs = runs[1:]
			continue
		}
		g := &c.Ops[i].G
		var amps int64
		switch g.Kind {
		case gate.ID, gate.BARRIER:
			amps = 0
		case gate.Z, gate.S, gate.SDG, gate.T, gate.TDG, gate.U1:
			amps = dim >> 1
		case gate.CZ, gate.CU1, gate.CS, gate.CSDG, gate.CT, gate.CTDG:
			amps = dim >> 2
		case gate.CX, gate.CY, gate.CH, gate.SWAP, gate.CRX, gate.CRY, gate.CRZ,
			gate.CU3, gate.RZZ:
			amps = dim >> 1
		case gate.CCX, gate.CSWAP:
			amps = dim >> 2
		case gate.C3X, gate.C3SQRTX:
			amps = dim >> 3
		case gate.C4X:
			amps = dim >> 4
		case gate.RCCX, gate.RC3X:
			amps = dim // generic matrix path touches every amplitude
		case gate.MEASURE, gate.RESET:
			amps = dim
		default:
			// X, Y, H, SX, SXDG, RX, RY, RZ, U2, U3, RXX, GPHASE.
			amps = dim
		}
		tr.Gates++
		tr.Amps += amps
		tr.Bytes += amps * 16
	}
	return tr
}
