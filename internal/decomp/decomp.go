// Package decomp lowers compound gates to the SV-Sim ISA's basic and
// standard gates (paper §3.3.1: "The compound gates are realized by
// composing the call to basic gates and standard gates"). The sequences
// follow qelib1.inc where qelib1 defines one; the multi-controlled family
// uses the Barenco controlled-root recursion. Every sequence is verified
// against the direct kernels by the package tests.
package decomp

import (
	"math"
	"math/cmplx"

	"svsim/internal/circuit"
	"svsim/internal/gate"
)

// IsStandard reports whether a kind belongs to the lowered target set: the
// OpenQASM basic gates (u1/u2/u3/cx/id), the standard 1-qubit gates, the
// global phase, and the non-unitary runtime ops.
func IsStandard(k gate.Kind) bool {
	switch k {
	case gate.U3, gate.U2, gate.U1, gate.CX, gate.ID,
		gate.X, gate.Y, gate.Z, gate.H,
		gate.S, gate.SDG, gate.T, gate.TDG,
		gate.RX, gate.RY, gate.RZ,
		gate.GPHASE, gate.MEASURE, gate.RESET, gate.BARRIER:
		return true
	}
	return false
}

// Decompose lowers one gate a single level. Standard gates return
// themselves; compound gates return their composition (whose members may
// themselves be compound — use Expand for a full lowering).
func Decompose(g gate.Gate) []gate.Gate {
	if IsStandard(g.Kind) {
		return []gate.Gate{g}
	}
	q := g.Qubits
	p := g.Params
	switch g.Kind {
	case gate.SX:
		// HSH = sqrt(X) exactly.
		return []gate.Gate{gate.NewH(int(q[0])), gate.NewS(int(q[0])), gate.NewH(int(q[0]))}
	case gate.SXDG:
		return []gate.Gate{gate.NewH(int(q[0])), gate.NewSDG(int(q[0])), gate.NewH(int(q[0]))}
	case gate.CZ:
		c, t := int(q[0]), int(q[1])
		return []gate.Gate{gate.NewH(t), gate.NewCX(c, t), gate.NewH(t)}
	case gate.CY:
		c, t := int(q[0]), int(q[1])
		return []gate.Gate{gate.NewSDG(t), gate.NewCX(c, t), gate.NewS(t)}
	case gate.SWAP:
		a, b := int(q[0]), int(q[1])
		return []gate.Gate{gate.NewCX(a, b), gate.NewCX(b, a), gate.NewCX(a, b)}
	case gate.CH:
		// Exact 3-gate form: H = RY(-pi/4) X RY(pi/4), so conjugating a CX
		// by Y-rotations on the target yields the controlled Hadamard.
		c, t := int(q[0]), int(q[1])
		return []gate.Gate{
			gate.NewRY(math.Pi/4, t),
			gate.NewCX(c, t),
			gate.NewRY(-math.Pi/4, t),
		}
	case gate.CCX:
		// qelib1 ccx: the textbook 15-gate Toffoli.
		a, b, c := int(q[0]), int(q[1]), int(q[2])
		return []gate.Gate{
			gate.NewH(c),
			gate.NewCX(b, c), gate.NewTDG(c),
			gate.NewCX(a, c), gate.NewT(c),
			gate.NewCX(b, c), gate.NewTDG(c),
			gate.NewCX(a, c),
			gate.NewT(b), gate.NewT(c), gate.NewH(c),
			gate.NewCX(a, b), gate.NewT(a), gate.NewTDG(b),
			gate.NewCX(a, b),
		}
	case gate.CSWAP:
		// qelib1 cswap: cx c,b; ccx a,b,c; cx c,b with our operand order
		// (control, a, b).
		ctl, a, b := int(q[0]), int(q[1]), int(q[2])
		return []gate.Gate{gate.NewCX(b, a), gate.NewCCX(ctl, a, b), gate.NewCX(b, a)}
	case gate.CU1:
		c, t := int(q[0]), int(q[1])
		l := p[0]
		return []gate.Gate{
			gate.NewU1(l/2, c),
			gate.NewCX(c, t), gate.NewU1(-l/2, t),
			gate.NewCX(c, t), gate.NewU1(l/2, t),
		}
	case gate.CRZ:
		c, t := int(q[0]), int(q[1])
		l := p[0]
		return []gate.Gate{
			gate.NewRZ(l/2, t),
			gate.NewCX(c, t), gate.NewRZ(-l/2, t),
			gate.NewCX(c, t),
		}
	case gate.CRY:
		c, t := int(q[0]), int(q[1])
		l := p[0]
		return []gate.Gate{
			gate.NewRY(l/2, t),
			gate.NewCX(c, t), gate.NewRY(-l/2, t),
			gate.NewCX(c, t),
		}
	case gate.CRX:
		// qelib1 crx.
		c, t := int(q[0]), int(q[1])
		l := p[0]
		return []gate.Gate{
			gate.NewU1(math.Pi/2, t),
			gate.NewCX(c, t),
			gate.NewU3(-l/2, 0, 0, t),
			gate.NewCX(c, t),
			gate.NewU3(l/2, -math.Pi/2, 0, t),
		}
	case gate.CU3:
		// qelib1 cu3.
		c, t := int(q[0]), int(q[1])
		th, ph, la := p[0], p[1], p[2]
		return []gate.Gate{
			gate.NewU1((la+ph)/2, c),
			gate.NewU1((la-ph)/2, t),
			gate.NewCX(c, t),
			gate.NewU3(-th/2, 0, -(ph+la)/2, t),
			gate.NewCX(c, t),
			gate.NewU3(th/2, ph, 0, t),
		}
	case gate.CS:
		return Decompose(gate.NewCU1(math.Pi/2, int(q[0]), int(q[1])))
	case gate.CSDG:
		return Decompose(gate.NewCU1(-math.Pi/2, int(q[0]), int(q[1])))
	case gate.CT:
		return Decompose(gate.NewCU1(math.Pi/4, int(q[0]), int(q[1])))
	case gate.CTDG:
		return Decompose(gate.NewCU1(-math.Pi/4, int(q[0]), int(q[1])))
	case gate.RZZ:
		a, b := int(q[0]), int(q[1])
		return []gate.Gate{gate.NewCX(a, b), gate.NewU1(p[0], b), gate.NewCX(a, b)}
	case gate.RXX:
		// exp(-i t XX/2) = (H x H) exp(-i t ZZ/2) (H x H), and the exact ZZ
		// rotation is the CX-conjugated RZ.
		a, b := int(q[0]), int(q[1])
		th := p[0]
		return []gate.Gate{
			gate.NewH(a), gate.NewH(b),
			gate.NewCX(a, b),
			gate.NewRZ(th, b),
			gate.NewCX(a, b),
			gate.NewH(a), gate.NewH(b),
		}
	case gate.RCCX:
		a, b, c := int(q[0]), int(q[1]), int(q[2])
		return []gate.Gate{
			gate.NewU2(0, math.Pi, c), gate.NewU1(math.Pi/4, c),
			gate.NewCX(b, c), gate.NewU1(-math.Pi/4, c),
			gate.NewCX(a, c), gate.NewU1(math.Pi/4, c),
			gate.NewCX(b, c), gate.NewU1(-math.Pi/4, c),
			gate.NewU2(0, math.Pi, c),
		}
	case gate.RC3X:
		a, b, c, d := int(q[0]), int(q[1]), int(q[2]), int(q[3])
		u2d := func() gate.Gate { return gate.NewU2(0, math.Pi, d) }
		return []gate.Gate{
			u2d(), gate.NewU1(math.Pi/4, d),
			gate.NewCX(c, d), gate.NewU1(-math.Pi/4, d), u2d(),
			gate.NewCX(a, d), gate.NewU1(math.Pi/4, d),
			gate.NewCX(b, d), gate.NewU1(-math.Pi/4, d),
			gate.NewCX(a, d), gate.NewU1(math.Pi/4, d),
			gate.NewCX(b, d), gate.NewU1(-math.Pi/4, d),
			u2d(), gate.NewU1(math.Pi/4, d),
			gate.NewCX(c, d), gate.NewU1(-math.Pi/4, d), u2d(),
		}
	case gate.C3X:
		return MCX([]int{int(q[0]), int(q[1]), int(q[2])}, int(q[3]))
	case gate.C4X:
		return MCX([]int{int(q[0]), int(q[1]), int(q[2]), int(q[3])}, int(q[4]))
	case gate.C3SQRTX:
		return mcxPow(0.5, []int{int(q[0]), int(q[1]), int(q[2])}, int(q[3]))
	}
	panic("decomp: no decomposition for kind " + g.Kind.String())
}

// MCX builds an n-controlled X from Toffolis and controlled roots using
// the Barenco recursion. For 0, 1, 2 controls it returns X, CX, CCX.
func MCX(ctrls []int, t int) []gate.Gate {
	switch len(ctrls) {
	case 0:
		return []gate.Gate{gate.NewX(t)}
	case 1:
		return []gate.Gate{gate.NewCX(ctrls[0], t)}
	case 2:
		return []gate.Gate{gate.NewCCX(ctrls[0], ctrls[1], t)}
	}
	n := len(ctrls)
	last := ctrls[n-1]
	rest := ctrls[:n-1]
	var out []gate.Gate
	// C^n(X) = CV(last,t) C^{n-1}X(rest,last) CV+(last,t)
	//          C^{n-1}X(rest,last) C^{n-1}V(rest,t), with V = sqrt(X).
	out = append(out, cxPow(0.5, last, t)...)
	out = append(out, MCX(rest, last)...)
	out = append(out, cxPow(-0.5, last, t)...)
	out = append(out, MCX(rest, last)...)
	out = append(out, mcxPow(0.5, rest, t)...)
	return out
}

// Controlled lowers the one-qubit gate g — x y z h s sdg t tdg u1 rx ry
// rz — or the global phase g under every qubit in ctrls. A kind that
// names the controlled gate is that kind (cx, cy, …, cu1; ccx, c3x and
// c4x for x). Wider ones take MCX's recursion: RX(theta) is
// e^{-i theta/2} X^{theta/pi}, a diagonal phase diag(1, e^{i lambda}) is
// H X^{lambda/pi} H, and Y, Z, H, RY and RZ are x or rx conjugated by a
// gate that needs no control. A controlled global phase is a u1 on one
// control under the others. Like gate.New it panics on a repeated qubit.
func Controlled(g gate.Gate, ctrls []int) []gate.Gate {
	nc := len(ctrls)
	if nc == 0 {
		return []gate.Gate{g}
	}
	if g.Kind == gate.GPHASE {
		return Controlled(gate.NewU1(g.Params[0], ctrls[nc-1]), ctrls[:nc-1])
	}
	t := int(g.Qubits[0])
	for k := gate.Kind(0); int(k) < gate.NumKinds; k++ {
		if k.NumControls() == nc && k.BaseKind() == g.Kind {
			return []gate.Gate{gate.New(k, append(append([]int(nil), ctrls...), t), g.ParamSlice()...)}
		}
	}
	inner := gate.NewX(t)
	var w, wdg gate.Gate // inner's conjugation: g = wdg · inner · w
	switch g.Kind {
	case gate.X:
		return MCX(ctrls, t)
	case gate.RX:
		th := g.Params[0]
		return append(mcxPow(th/math.Pi, ctrls, t), Controlled(gate.NewGPhase(-th/2), ctrls)...)
	case gate.S, gate.SDG, gate.T, gate.TDG, gate.U1:
		lambda := cmplx.Phase(gate.Unitary(g).At(1, 1))
		return append(append([]gate.Gate{gate.NewH(t)}, mcxPow(lambda/math.Pi, ctrls, t)...), gate.NewH(t))
	case gate.Y, gate.RY:
		w, wdg = gate.NewSDG(t), gate.NewS(t)
	case gate.Z, gate.RZ:
		w, wdg = gate.NewH(t), gate.NewH(t)
	case gate.H:
		w, wdg = gate.NewRY(math.Pi/4, t), gate.NewRY(-math.Pi/4, t)
	default:
		panic("decomp: no controlled lowering for kind " + g.Kind.String())
	}
	if g.NP == 1 {
		inner = gate.NewRX(g.Params[0], t)
	}
	return append(append([]gate.Gate{w}, Controlled(inner, ctrls)...), wdg)
}

// cxPow emits a controlled X^alpha: X^a = e^{i pi a/2} RX(pi a), so the
// controlled version is a U1(pi a/2) on the control composed with a
// decomposed CRX(pi a).
func cxPow(alpha float64, c, t int) []gate.Gate {
	out := []gate.Gate{gate.NewU1(math.Pi*alpha/2, c)}
	out = append(out, Decompose(gate.NewCRX(math.Pi*alpha, c, t))...)
	return out
}

// mcxPow emits an m-controlled X^alpha via the same recursion.
func mcxPow(alpha float64, ctrls []int, t int) []gate.Gate {
	if len(ctrls) == 0 {
		// X^alpha = e^{i pi a/2} RX(pi a); keep it exact with a global phase.
		return []gate.Gate{gate.NewGPhase(math.Pi * alpha / 2), gate.NewRX(math.Pi*alpha, t)}
	}
	if len(ctrls) == 1 {
		return cxPow(alpha, ctrls[0], t)
	}
	n := len(ctrls)
	last := ctrls[n-1]
	rest := ctrls[:n-1]
	var out []gate.Gate
	out = append(out, cxPow(alpha/2, last, t)...)
	out = append(out, MCX(rest, last)...)
	out = append(out, cxPow(-alpha/2, last, t)...)
	out = append(out, MCX(rest, last)...)
	out = append(out, mcxPow(alpha/2, rest, t)...)
	return out
}

// MCXVChain builds an n-controlled X using the Toffoli V-chain with clean
// ancillas: linear gate count (2(n-2)+1 Toffolis) instead of the ancilla
// free recursion's exponential growth. It needs len(ctrls)-2 ancillas that
// start and end in |0>.
func MCXVChain(ctrls []int, t int, anc []int) []gate.Gate {
	n := len(ctrls)
	if n <= 2 {
		return MCX(ctrls, t)
	}
	if len(anc) < n-2 {
		panic("decomp: MCXVChain needs len(ctrls)-2 ancillas")
	}
	var out []gate.Gate
	// Forward chain: anc[i] accumulates the AND of the first i+2 controls.
	out = append(out, gate.NewCCX(ctrls[0], ctrls[1], anc[0]))
	for i := 2; i < n-1; i++ {
		out = append(out, gate.NewCCX(ctrls[i], anc[i-2], anc[i-1]))
	}
	out = append(out, gate.NewCCX(ctrls[n-1], anc[n-3], t))
	// Uncompute.
	for i := n - 2; i >= 2; i-- {
		out = append(out, gate.NewCCX(ctrls[i], anc[i-2], anc[i-1]))
	}
	out = append(out, gate.NewCCX(ctrls[0], ctrls[1], anc[0]))
	return out
}

// ExpandGate fully lowers one gate to the standard set.
func ExpandGate(g gate.Gate) []gate.Gate {
	if IsStandard(g.Kind) {
		return []gate.Gate{g}
	}
	var out []gate.Gate
	for _, sub := range Decompose(g) {
		if IsStandard(sub.Kind) {
			out = append(out, sub)
		} else {
			out = append(out, ExpandGate(sub)...)
		}
	}
	return out
}

// Expand fully lowers a circuit to the standard set, preserving classical
// conditions (every expanded gate inherits its source's condition).
func Expand(c *circuit.Circuit) *circuit.Circuit {
	out := &circuit.Circuit{Name: c.Name, NumQubits: c.NumQubits, NumClbits: c.NumClbits}
	for i := range c.Ops {
		op := &c.Ops[i]
		for _, g := range ExpandGate(op.G) {
			if op.Cond != nil {
				out.AppendCond(g, *op.Cond)
			} else {
				out.Append(g)
			}
		}
	}
	return out
}
