package vqa

import (
	"time"

	"svsim/internal/circuit"
	"svsim/internal/core"
	"svsim/internal/ham"
	"svsim/internal/qasmbench"
)

// VQE drives the variational quantum eigensolver of §5: per optimizer
// iteration an ansatz circuit is synthesized from the current parameters
// and simulated on an SV-Sim backend to measure the Hamiltonian
// expectation. The per-trial simulation latency is what the paper reports
// (1.23 ms per circuit validation for H2 on a V100).

// VQEResult reports the optimized energy, the Fig. 16 trajectory, and the
// per-trial simulation cost.
type VQEResult struct {
	Energy        float64
	Params        []float64
	Trajectory    []float64 // best energy per optimizer iteration
	Trials        int       // circuits synthesized and simulated
	AvgTrialTime  time.Duration
	GatesPerTrial int
}

// VQEConfig configures a run.
type VQEConfig struct {
	Backend core.Backend // nil = single-device
	Iters   int          // optimizer iterations (paper: 58 for H2)
	Step    float64      // initial simplex step
}

// RunVQE minimizes the expectation of h over the parameterized ansatz
// built by build(theta).
func RunVQE(h *ham.Hamiltonian, build func([]float64) *circuit.Circuit, theta0 []float64, cfg VQEConfig) VQEResult {
	backend := cfg.Backend
	if backend == nil {
		backend = core.NewSingleDevice(core.Config{})
	}
	if cfg.Iters == 0 {
		cfg.Iters = 58 // the paper's H2 run uses 58 Nelder-Mead iterations
	}
	if cfg.Step == 0 {
		cfg.Step = 0.1
	}
	trials := 0
	var totalTime time.Duration
	gates := 0
	energy := func(theta []float64) float64 {
		c := build(theta)
		gates = c.NumGates()
		res, err := backend.Run(c)
		if err != nil {
			panic(err)
		}
		trials++
		totalTime += res.Elapsed
		return h.Expectation(res.State)
	}
	opt := NelderMead(energy, theta0, NelderMeadOpts{MaxIters: cfg.Iters, InitialStep: cfg.Step})
	avg := time.Duration(0)
	if trials > 0 {
		avg = totalTime / time.Duration(trials)
	}
	return VQEResult{
		Energy:        opt.F,
		Params:        opt.X,
		Trajectory:    opt.Trajectory,
		Trials:        trials,
		AvgTrialTime:  avg,
		GatesPerTrial: gates,
	}
}

// H2Ansatz builds the UCCSD ansatz for the 4-qubit H2 problem (5
// parameters: four singles and one double).
func H2Ansatz(theta []float64) *circuit.Circuit {
	return qasmbench.BuildUCCSD(4, theta)
}

// H2NumParams is the parameter count of H2Ansatz.
func H2NumParams() int { return qasmbench.UCCSDNumParams(4) }

// RunH2VQE runs the paper's Fig. 16 experiment: UCCSD ansatz, Nelder-Mead,
// 58 iterations, returning the energy trajectory that converges to about
// -1.137 Ha.
func RunH2VQE(cfg VQEConfig) VQEResult {
	theta0 := make([]float64, H2NumParams())
	return RunVQE(ham.H2(), H2Ansatz, theta0, cfg)
}
