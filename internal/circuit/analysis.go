package circuit

import "svsim/internal/gate"

// Circuit analysis: depth and parallelism metrics. The paper frames
// simulation cost as "exponentially increased with the width of the
// circuit and linearly increased with the depth"; Depth computes that
// depth (the length of the critical path under ASAP scheduling, where
// operations on disjoint qubits share a layer).

// Depth returns the number of ASAP layers. Barriers force a layer
// boundary across all qubits; measurements, resets, and conditioned
// operations occupy layers like gates (a conditioned operation depends on
// every earlier measurement, conservatively modeled as touching the whole
// register).
func (c *Circuit) Depth() int {
	frontier := make([]int, c.NumQubits) // next free layer per qubit
	depth := 0
	place := func(qs []int) {
		layer := 0
		for _, q := range qs {
			if frontier[q] > layer {
				layer = frontier[q]
			}
		}
		for _, q := range qs {
			frontier[q] = layer + 1
		}
		if layer+1 > depth {
			depth = layer + 1
		}
	}
	all := make([]int, c.NumQubits)
	for i := range all {
		all[i] = i
	}
	for i := range c.Ops {
		op := &c.Ops[i]
		g := &op.G
		switch {
		case g.Kind == gate.BARRIER:
			// Align every qubit to the current maximum.
			layer := 0
			for _, f := range frontier {
				if f > layer {
					layer = f
				}
			}
			for q := range frontier {
				frontier[q] = layer
			}
		case op.Cond != nil:
			place(all)
		case g.NQ == 0:
			place(all) // global phase conceptually touches everything
		default:
			qs := make([]int, g.NQ)
			for j := range qs {
				qs[j] = int(g.Qubits[j])
			}
			place(qs)
		}
	}
	return depth
}

// Parallelism returns the average operations per layer (gate-level
// parallelism available to a width-split executor).
func (c *Circuit) Parallelism() float64 {
	d := c.Depth()
	if d == 0 {
		return 0
	}
	ops := 0
	for i := range c.Ops {
		if c.Ops[i].G.Kind != gate.BARRIER {
			ops++
		}
	}
	return float64(ops) / float64(d)
}
