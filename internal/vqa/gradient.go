package vqa

import (
	"math"

	"svsim/internal/circuit"
	"svsim/internal/core"
	"svsim/internal/ham"
)

// Parameter-shift gradients: for an ansatz whose parameter t enters
// through exactly one Pauli rotation exp(-i t P / 2), the derivative of
// an expectation value is exactly
//
//	dE/dt = [E(t + pi/2) - E(t - pi/2)] / 2
//
// evaluated on the quantum device/simulator itself. The rule is exact for
// single-occurrence parameters (a hardware-efficient ansatz); for
// ansatze that reuse one angle across several rotations (UCCSD, QAOA) the
// two-point form is an approximation, and the chain rule over
// per-occurrence shifts would be needed for exactness. This powers the
// gradient-descent variational loop, an alternative to Nelder-Mead that
// doubles as a second, physics-level validation of the synthesis.

// Energy evaluates <H> for the ansatz at theta on the backend.
func Energy(b core.Backend, h *ham.Hamiltonian, ansatz func([]float64) *circuit.Circuit, theta []float64) float64 {
	res, err := b.Run(ansatz(theta))
	if err != nil {
		panic(err)
	}
	return h.Expectation(res.State)
}

// ParameterShiftGradient computes the energy gradient with the two-point
// parameter-shift rule (2 circuit evaluations per parameter; exact when
// every parameter occurs in exactly one rotation).
func ParameterShiftGradient(b core.Backend, h *ham.Hamiltonian, ansatz func([]float64) *circuit.Circuit, theta []float64) []float64 {
	grad := make([]float64, len(theta))
	shifted := append([]float64(nil), theta...)
	for i := range theta {
		shifted[i] = theta[i] + math.Pi/2
		plus := Energy(b, h, ansatz, shifted)
		shifted[i] = theta[i] - math.Pi/2
		minus := Energy(b, h, ansatz, shifted)
		shifted[i] = theta[i]
		grad[i] = (plus - minus) / 2
	}
	return grad
}

// GradientDescentResult reports a gradient-based VQE run.
type GradientDescentResult struct {
	Energy     float64
	Params     []float64
	Trajectory []float64
	Evals      int
}

// GradientDescentVQE minimizes the energy with plain gradient descent on
// parameter-shift gradients.
func GradientDescentVQE(b core.Backend, h *ham.Hamiltonian, ansatz func([]float64) *circuit.Circuit, theta0 []float64, rate float64, iters int) GradientDescentResult {
	if b == nil {
		b = core.NewSingleDevice(core.Config{})
	}
	theta := append([]float64(nil), theta0...)
	evals := 0
	var traj []float64
	for it := 0; it < iters; it++ {
		grad := ParameterShiftGradient(b, h, ansatz, theta)
		evals += 2 * len(theta)
		for i := range theta {
			theta[i] -= rate * grad[i]
		}
		traj = append(traj, Energy(b, h, ansatz, theta))
		evals++
	}
	return GradientDescentResult{
		Energy:     traj[len(traj)-1],
		Params:     theta,
		Trajectory: traj,
		Evals:      evals,
	}
}
