package gate

// Class is the universal unitary decomposition of a gate: a set of control
// qubits plus a small unitary acting on target qubits. Distributed
// backends use it to pick communication strategies (diagonal gates are
// communication-free; controls that live on remote partitions reduce to
// constants).
type Class struct {
	Ctrls   []int  // control qubit indices
	Targets []int  // target qubit indices (local bit j of U = Targets[j])
	U       Matrix // unitary on the targets
	Diag    bool   // U is diagonal
}

// Classify decomposes a unitary gate into its control/target/unitary form.
// It panics for non-unitary kinds.
func Classify(g *Gate) Class {
	nc := g.Kind.NumControls()
	var cl Class
	for i := 0; i < nc; i++ {
		cl.Ctrls = append(cl.Ctrls, int(g.Qubits[i]))
	}
	for _, t := range g.Targets() {
		cl.Targets = append(cl.Targets, int(t))
	}
	if nc > 0 {
		base := New(g.Kind.BaseKind(), iotaOperands(len(cl.Targets)), g.ParamSlice()...)
		cl.U = Unitary(base)
	} else {
		cl.U = Unitary(*g)
	}
	cl.Diag = cl.U.IsDiagonal()
	return cl
}

// Local reports whether the gate can be applied to an aligned window of
// 2^bits amplitudes without reading outside it: a diagonal unitary never
// couples amplitudes, and otherwise every target must sit below bits.
// Controls may sit anywhere (a control above the window makes it wholly
// active or skipped).
func (c *Class) Local(bits int) bool {
	if c.Diag {
		return true
	}
	for _, t := range c.Targets {
		if t >= bits {
			return false
		}
	}
	return true
}

func iotaOperands(k int) []int {
	qs := make([]int, k)
	for i := range qs {
		qs[i] = i
	}
	return qs
}

// IsDiagonal reports whether every off-diagonal element is exactly zero.
func (m Matrix) IsDiagonal() bool {
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			if i != j && m.Data[i*m.N+j] != 0 {
				return false
			}
		}
	}
	return true
}
