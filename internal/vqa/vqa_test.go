package vqa

import (
	"math"
	"math/rand"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/core"
	"svsim/internal/ham"
)

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + 2*(x[1]+1)*(x[1]+1) + 5
	}
	res := NelderMead(f, []float64{0, 0}, NelderMeadOpts{MaxIters: 300, InitialStep: 0.5})
	if math.Abs(res.X[0]-3) > 1e-3 || math.Abs(res.X[1]+1) > 1e-3 {
		t.Fatalf("minimum at %v", res.X)
	}
	if math.Abs(res.F-5) > 1e-5 {
		t.Fatalf("minimum value %g", res.F)
	}
	// Trajectory must be non-increasing.
	for i := 1; i < len(res.Trajectory); i++ {
		if res.Trajectory[i] > res.Trajectory[i-1]+1e-12 {
			t.Fatal("best-so-far trajectory increased")
		}
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	res := NelderMead(f, []float64{-1.2, 1}, NelderMeadOpts{MaxIters: 2000, InitialStep: 0.5})
	if res.F > 1e-4 {
		t.Fatalf("Rosenbrock minimum not reached: f=%g at %v", res.F, res.X)
	}
}

func TestNelderMeadTolStopsEarly(t *testing.T) {
	f := func(x []float64) float64 { return x[0] * x[0] }
	res := NelderMead(f, []float64{1}, NelderMeadOpts{MaxIters: 10000, InitialStep: 0.1, Tol: 1e-6})
	if len(res.Trajectory) >= 10000 {
		t.Fatal("tolerance did not stop the optimizer")
	}
}

func TestH2VQEConvergesToGroundEnergy(t *testing.T) {
	// Fig. 16: the 58-iteration Nelder-Mead run must approach -1.137 Ha.
	res := RunH2VQE(VQEConfig{Iters: 120})
	if math.Abs(res.Energy-ham.H2Reference) > 5e-3 {
		t.Fatalf("VQE energy %g, want within 5 mHa of %g", res.Energy, ham.H2Reference)
	}
	if res.Trials < 100 {
		t.Fatalf("suspiciously few trials: %d", res.Trials)
	}
	// The trajectory must start at the HF energy region and descend.
	first, last := res.Trajectory[0], res.Trajectory[len(res.Trajectory)-1]
	if first < last {
		t.Fatal("energy trajectory ascended")
	}
	if first > -1.0 || first < -1.137 {
		t.Fatalf("starting energy %g not in the HF region", first)
	}
}

func TestH2VQEMatchesPaperIterationBudget(t *testing.T) {
	// With the paper's 58 iterations the run should already be within a
	// few mHa chemically useful range.
	res := RunH2VQE(VQEConfig{})
	if len(res.Trajectory) != 58 {
		t.Fatalf("trajectory has %d iterations, want 58", len(res.Trajectory))
	}
	if res.Energy > -1.12 {
		t.Fatalf("58-iteration energy %g too high", res.Energy)
	}
	if res.GatesPerTrial < 50 {
		t.Fatalf("H2 ansatz has %d gates, expected ~90", res.GatesPerTrial)
	}
}

func TestVQEOnDistributedBackend(t *testing.T) {
	// The variational loop must run unchanged on the scale-out backend.
	res := RunVQE(ham.H2(), H2Ansatz, make([]float64, H2NumParams()),
		VQEConfig{Iters: 30, Backend: core.NewScaleOut(core.Config{PEs: 4})})
	if res.Energy > -1.10 {
		t.Fatalf("distributed VQE energy %g", res.Energy)
	}
}

func TestQNNCircuitShape(t *testing.T) {
	w := make([]float64, QNNNumWeights)
	c := QNNCircuit([4]float64{0.1, 0.2, 0.3, 0.4}, w)
	if c.NumQubits != QNNNumQubits {
		t.Fatalf("qubits: %d", c.NumQubits)
	}
	if c.NumGates() < 10 {
		t.Fatalf("gates: %d", c.NumGates())
	}
	backend := core.NewSingleDevice(core.Config{})
	p := QNNPredict(backend, [4]float64{0.1, 0.2, 0.3, 0.4}, w)
	if p < 0 || p > 1 {
		t.Fatalf("prediction %g not a probability", p)
	}
}

func TestGridDatasetBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	data := GridDataset(rng, 400)
	pos := 0
	for _, d := range data {
		if d.Violated {
			pos++
		}
	}
	frac := float64(pos) / 400
	if frac < 0.2 || frac > 0.8 {
		t.Fatalf("dataset is degenerate: %.2f positive", frac)
	}
}

func TestQNNTrainingImprovesAccuracy(t *testing.T) {
	// The paper's prototype: ~20 training cases, 2 epochs, test accuracy
	// rising from near-chance to >70%.
	rng := rand.New(rand.NewSource(12))
	train := GridDataset(rng, 20)
	test := GridDataset(rng, 37)
	backend := core.NewSingleDevice(core.Config{})
	res := TrainQNN(backend, train, test, 2, 60, 5)
	final := res.TestAccuracy[len(res.TestAccuracy)-1]
	if final < 0.65 {
		t.Fatalf("test accuracy after training: %v", res.TestAccuracy)
	}
	if res.Trials < 500 {
		t.Fatalf("training simulated only %d circuits", res.Trials)
	}
}

func TestQAOARingFindsGoodCut(t *testing.T) {
	g := RingGraph(6) // MaxCut = 6
	res := RunQAOA(g, 2, nil, 200, 3)
	if res.OptimalCut != 6 {
		t.Fatalf("brute MaxCut = %d", res.OptimalCut)
	}
	// Depth-2 QAOA on the 6-ring should push <C> well above random (3)
	// and sampling should find the optimum.
	if res.ExpectedCut < 4.5 {
		t.Fatalf("expected cut only %.2f", res.ExpectedCut)
	}
	if res.BestCut != res.OptimalCut {
		t.Fatalf("best sampled cut %d, optimum %d", res.BestCut, res.OptimalCut)
	}
}

func TestQAOARandomGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := RandomGraph(rng, 7, 0.5)
	if len(g.Edges) < 5 {
		t.Skip("degenerate random graph")
	}
	res := RunQAOA(g, 2, core.NewScaleOut(core.Config{PEs: 4}), 150, 5)
	// The sampled best cut should be at least 90% of optimal.
	if float64(res.BestCut) < 0.9*float64(res.OptimalCut) {
		t.Fatalf("best cut %d vs optimal %d", res.BestCut, res.OptimalCut)
	}
	if res.Trials < 100 {
		t.Fatalf("trials = %d", res.Trials)
	}
}

func TestCutValueMatchesDefinition(t *testing.T) {
	g := Graph{N: 3, Edges: [][2]int{{0, 1}, {1, 2}, {0, 2}}} // triangle
	if g.MaxCutBrute() != 2 {
		t.Fatalf("triangle MaxCut = %d", g.MaxCutBrute())
	}
	if g.CutValue(0b001) != 2 || g.CutValue(0b111) != 0 {
		t.Fatal("CutValue wrong")
	}
}

func TestParameterShiftMatchesFiniteDifference(t *testing.T) {
	// On the single-occurrence ansatz the shift rule is exact; compare to
	// central finite differences.
	build, num := HardwareEfficientAnsatz(3, 2)
	h := &ham.Hamiltonian{N: 3}
	h.Add(0.7, "ZII")
	h.Add(-0.4, "IZZ")
	h.Add(0.2, "XXI")
	backend := core.NewSingleDevice(core.Config{})
	rng := rand.New(rand.NewSource(21))
	theta := make([]float64, num)
	for i := range theta {
		theta[i] = rng.NormFloat64()
	}
	grad := ParameterShiftGradient(backend, h, build, theta)
	const eps = 1e-5
	shifted := append([]float64(nil), theta...)
	for i := range theta {
		shifted[i] = theta[i] + eps
		plus := Energy(backend, h, build, shifted)
		shifted[i] = theta[i] - eps
		minus := Energy(backend, h, build, shifted)
		shifted[i] = theta[i]
		fd := (plus - minus) / (2 * eps)
		if math.Abs(grad[i]-fd) > 1e-6 {
			t.Fatalf("param %d: shift rule %g vs finite difference %g", i, grad[i], fd)
		}
	}
}

func TestGradientDescentVQEOnH2(t *testing.T) {
	// Gradient descent with a hardware-efficient ansatz must drive the H2
	// energy well below the Hartree-Fock point.
	hw, num := HardwareEfficientAnsatz(4, 2)
	// Perturb around the Hartree-Fock reference |0011>.
	build := func(th []float64) *circuit.Circuit {
		c := circuit.New("hf+hw", 4)
		c.X(0).X(1)
		return c.Concat(hw(th))
	}
	rng := rand.New(rand.NewSource(23))
	theta0 := make([]float64, num)
	for i := range theta0 {
		theta0[i] = rng.NormFloat64() * 0.1
	}
	res := GradientDescentVQE(nil, ham.H2(), build, theta0, 0.2, 60)
	if res.Energy > -1.0 {
		t.Fatalf("gradient VQE energy %g", res.Energy)
	}
	// Mostly descending trajectory.
	rises := 0
	for i := 1; i < len(res.Trajectory); i++ {
		if res.Trajectory[i] > res.Trajectory[i-1]+1e-9 {
			rises++
		}
	}
	if rises > len(res.Trajectory)/4 {
		t.Fatalf("trajectory rose %d/%d times", rises, len(res.Trajectory))
	}
	if res.Evals < 60*(2*num) {
		t.Fatalf("evals = %d", res.Evals)
	}
}

// RingGraph returns the n-cycle (a standard QAOA benchmark whose MaxCut
// value is n for even n and n-1 for odd n).
func RingGraph(n int) Graph {
	g := Graph{N: n}
	for i := 0; i < n; i++ {
		g.Edges = append(g.Edges, [2]int{i, (i + 1) % n})
	}
	return g
}

// HardwareEfficientAnsatz builds a layered ansatz in which every
// parameter occurs in exactly one rotation (so parameter-shift gradients
// are exact): per layer, an RY and an RZ on each qubit followed by a CX
// entangling line. It needs 2*n*layers parameters.
func HardwareEfficientAnsatz(n, layers int) (func([]float64) *circuit.Circuit, int) {
	num := 2 * n * layers
	build := func(theta []float64) *circuit.Circuit {
		if len(theta) != num {
			panic("vqa: HardwareEfficientAnsatz parameter count mismatch")
		}
		c := circuit.New("hw-eff", n)
		k := 0
		for l := 0; l < layers; l++ {
			for q := 0; q < n; q++ {
				c.RY(theta[k], q)
				k++
				c.RZ(theta[k], q)
				k++
			}
			for q := 0; q+1 < n; q++ {
				c.CX(q, q+1)
			}
		}
		return c
	}
	return build, num
}
