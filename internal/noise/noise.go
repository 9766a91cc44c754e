// Package noise implements stochastic Pauli error channels via the
// quantum-trajectory method, extending the simulator toward the NISQ
// validation use case that motivates the paper ("Present QC testbeds ...
// incorporate high error rate. To validate a quantum algorithm, or debug
// a circuit, simulation results are still necessary"). Each trajectory
// inserts random Pauli errors after gates according to a depolarizing
// model; averaging observables over trajectories approximates the noisy
// device's density matrix without ever materializing it — so the
// state-vector backends (including the distributed ones) run unchanged.
package noise

import (
	"math/rand"

	"svsim/internal/circuit"
	"svsim/internal/core"
	"svsim/internal/gate"
)

// Model is a depolarizing error model: with probability P1 after every
// 1-qubit gate (P2 after every multi-qubit gate, on each operand) a
// uniformly random Pauli error is inserted. Measurement flips with
// probability PMeas.
type Model struct {
	P1    float64
	P2    float64
	PMeas float64
}

// Ideal is the noiseless model.
var Ideal = Model{}

// Trajectory returns one noisy realization of the circuit: the input with
// random Pauli errors inserted per the model. The result is an ordinary
// circuit, runnable on any backend.
func (m Model) Trajectory(c *circuit.Circuit, rng *rand.Rand) *circuit.Circuit {
	out := &circuit.Circuit{Name: c.Name + "-noisy", NumQubits: c.NumQubits, NumClbits: c.NumClbits}
	paulis := []func(int) gate.Gate{gate.NewX, gate.NewY, gate.NewZ}
	inject := func(q int, p float64) {
		if p > 0 && rng.Float64() < p {
			out.Append(paulis[rng.Intn(3)](int(q)))
		}
	}
	for i := range c.Ops {
		op := c.Ops[i]
		g := &op.G
		if g.Kind == gate.MEASURE && m.PMeas > 0 && rng.Float64() < m.PMeas {
			// Readout error: the qubit flips just before it is read out.
			out.Append(gate.NewX(int(g.Qubits[0])))
		}
		out.Ops = append(out.Ops, op)
		switch {
		case !g.Kind.Unitary() || g.Kind == gate.BARRIER || g.Kind == gate.GPHASE:
			// no gate noise on measure/reset/barrier/phase
		case g.NQ == 1:
			inject(int(g.Qubits[0]), m.P1)
		default:
			for _, q := range g.OperandQubits() {
				inject(int(q), m.P2)
			}
		}
	}
	return out
}

// Expectation estimates a Z-product observable under noise by averaging
// trajectories. mask selects the qubits whose Z-product is measured.
func (m Model) Expectation(b core.Backend, c *circuit.Circuit, mask uint64, trajectories int, seed int64) (float64, error) {
	rng := rand.New(rand.NewSource(seed))
	var sum float64
	zs, e := []uint64{mask}, []float64{0}
	for t := 0; t < trajectories; t++ {
		noisy := m.Trajectory(c, rng)
		res, err := b.Run(noisy)
		if err != nil {
			return 0, err
		}
		res.State.ExpPauliGroup(0, zs, e)
		sum += e[0]
	}
	return sum / float64(trajectories), nil
}

// Fidelity estimates the average state fidelity of the noisy circuit
// against its ideal output over the given trajectory count.
func (m Model) Fidelity(b core.Backend, c *circuit.Circuit, trajectories int, seed int64) (float64, error) {
	ideal, err := b.Run(c)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	var sum float64
	for t := 0; t < trajectories; t++ {
		noisy := m.Trajectory(c, rng)
		res, err := b.Run(noisy)
		if err != nil {
			return 0, err
		}
		sum += res.State.Fidelity(ideal.State)
	}
	return sum / float64(trajectories), nil
}
