package vqa

import (
	"fmt"
	"math/rand"

	"svsim/internal/circuit"
	"svsim/internal/core"
)

// QAOA for MaxCut — the third variational algorithm class the paper's
// introduction motivates (alongside VQE and QNN). The circuit alternates
// cost layers (an RZZ per graph edge) with mixer layers (an RX per
// vertex); the expectation of the cut operator is maximized over the
// (gamma, beta) schedule with Nelder-Mead, and the final state is sampled
// for the best cut.

// Graph is an undirected graph given as an edge list over n vertices.
type Graph struct {
	N     int
	Edges [][2]int
}

// RandomGraph returns an Erdos-Renyi-style graph with the given edge
// probability.
func RandomGraph(rng *rand.Rand, n int, p float64) Graph {
	g := Graph{N: n}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.Edges = append(g.Edges, [2]int{i, j})
			}
		}
	}
	return g
}

// CutValue counts the edges cut by an assignment (bit i = side of vertex i).
func (g Graph) CutValue(assign uint64) int {
	cut := 0
	for _, e := range g.Edges {
		if assign>>uint(e[0])&1 != assign>>uint(e[1])&1 {
			cut++
		}
	}
	return cut
}

// MaxCutBrute computes the exact MaxCut by enumeration (reference for
// tests and quality reporting; exponential, small graphs only).
func (g Graph) MaxCutBrute() int {
	best := 0
	for a := uint64(0); a < uint64(1)<<uint(g.N); a++ {
		if c := g.CutValue(a); c > best {
			best = c
		}
	}
	return best
}

// QAOACircuit builds the depth-p ansatz: uniform superposition, then p
// alternations of cost (RZZ(2*gamma) per edge) and mixer (RX(2*beta) per
// vertex).
func QAOACircuit(g Graph, gammas, betas []float64) *circuit.Circuit {
	if len(gammas) != len(betas) {
		panic("vqa: QAOA schedule length mismatch")
	}
	c := circuit.New(fmt.Sprintf("qaoa-p%d", len(gammas)), g.N)
	for v := 0; v < g.N; v++ {
		c.H(v)
	}
	for l := range gammas {
		for _, e := range g.Edges {
			c.RZZ(2*gammas[l], e[0], e[1])
		}
		for v := 0; v < g.N; v++ {
			c.RX(2*betas[l], v)
		}
	}
	return c
}

// QAOAResult reports a run.
type QAOAResult struct {
	ExpectedCut float64 // <C> at the optimum
	BestCut     int     // best sampled cut
	OptimalCut  int     // brute-force reference
	Gammas      []float64
	Betas       []float64
	Trials      int
}

// RunQAOA optimizes a depth-p schedule for MaxCut on g and samples the
// optimized state for concrete cuts.
func RunQAOA(g Graph, p int, backend core.Backend, iters int, seed int64) QAOAResult {
	if backend == nil {
		backend = core.NewSingleDevice(core.Config{})
	}
	if iters == 0 {
		iters = 150
	}
	trials := 0
	edges := make([]uint64, len(g.Edges))
	for i, ed := range g.Edges {
		edges[i] = uint64(1)<<uint(ed[0]) | uint64(1)<<uint(ed[1])
	}
	zz := make([]float64, len(edges))
	expectedCut := func(x []float64) float64 {
		gammas, betas := x[:p], x[p:]
		res, err := backend.Run(QAOACircuit(g, gammas, betas))
		if err != nil {
			panic(err)
		}
		trials++
		// <C> = sum over edges (1 - <Z_i Z_j>) / 2: every edge's ZZ is
		// one all-Z string, read in one pass.
		res.State.ExpPauliGroup(0, edges, zz)
		var e float64
		for _, v := range zz {
			e += (1 - v) / 2
		}
		return e
	}
	x0 := make([]float64, 2*p)
	rng := rand.New(rand.NewSource(seed))
	for i := range x0 {
		x0[i] = 0.2 + 0.3*rng.Float64()
	}
	opt := NelderMead(func(x []float64) float64 { return -expectedCut(x) }, x0,
		NelderMeadOpts{MaxIters: iters, InitialStep: 0.3})

	// Sample concrete assignments from the optimized state.
	res, err := backend.Run(QAOACircuit(g, opt.X[:p], opt.X[p:]))
	if err != nil {
		panic(err)
	}
	best := 0
	for _, idx := range res.State.Sample(rng, 256) {
		if cut := g.CutValue(uint64(idx)); cut > best {
			best = cut
		}
	}
	return QAOAResult{
		ExpectedCut: -opt.F,
		BestCut:     best,
		OptimalCut:  g.MaxCutBrute(),
		Gammas:      opt.X[:p],
		Betas:       opt.X[p:],
		Trials:      trials,
	}
}
