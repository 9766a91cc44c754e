package mpibase

import (
	"math/rand"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/core"
	"svsim/internal/gate"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
	"svsim/internal/statevec"
)

// cell is one transport × plan combination of the distributed runtime.
type cell struct {
	name string
	lazy bool
	run  func(c *circuit.Circuit, seed int64, pes, ppn int) (*statevec.State, uint64, error)
}

// matrixCells lists the four cells, each a row of core's backend table
// under one plan; the PGAS naive cell appears twice, once per remote-gate
// routine (element-wise and coalesced).
func matrixCells() []cell {
	row := func(backend string, pol sched.Policy, coalesced bool) func(*circuit.Circuit, int64, int, int) (*statevec.State, uint64, error) {
		return func(c *circuit.Circuit, seed int64, pes, ppn int) (*statevec.State, uint64, error) {
			b, err := core.NewBackend(backend, core.Config{Seed: seed, PEs: pes, Sched: pol, Coalesced: coalesced,
				Topology: sched.Topology{PEsPerNode: ppn}})
			if err != nil {
				return nil, 0, err
			}
			r, err := b.Run(c)
			if err != nil {
				return nil, 0, err
			}
			return r.State, r.Cbits, nil
		}
	}
	return []cell{
		{"pgas/naive", false, row("scale-up", sched.Naive, false)},
		{"pgas/naive-coalesced", false, row("scale-out", sched.Naive, true)},
		{"pgas/lazy", true, row("scale-up", sched.Lazy, false)},
		{"two-sided/naive", false, row("mpi", sched.Naive, false)},
		{"two-sided/lazy", true, row("mpi", sched.Lazy, false)},
	}
}

// TestTransportPlanIdentityMatrix pins the one-arithmetic claim on the
// medium suite's unitary circuits: every cell reproduces the
// single-device state exactly (MaxAbsDiff == 0). A lazy plan keeps every
// pairing target inside the partition window (flat and two-level); a
// naive plan's remote-gate routines move the operands into a scratch
// window and run the same kernels there.
func TestTransportPlanIdentityMatrix(t *testing.T) {
	circuits := []*circuit.Circuit{qasmbench.RQC(12, 16, 1)}
	for _, e := range qasmbench.Medium() {
		if c := e.Compact(); c.UnitaryOnly() && (!testing.Short() || c.NumQubits <= 12) {
			circuits = append(circuits, c)
		}
	}
	for _, c := range circuits {
		want, err := core.NewSingleDevice(core.Config{}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, cl := range matrixCells() {
			for _, pes := range []int{2, 4, 8} {
				ppns := []int{0}
				if cl.lazy {
					ppns = []int{0, 2}
				}
				for _, ppn := range ppns {
					got, _, err := cl.run(c, 0, pes, ppn)
					if err != nil {
						t.Fatalf("%s pes=%d ppn=%d on %s: %v", cl.name, pes, ppn, c.Name, err)
					}
					if d := got.MaxAbsDiff(want.State); d != 0 {
						t.Errorf("%s pes=%d ppn=%d on %s: deviates from single by %g, want bit-identical", cl.name, pes, ppn, c.Name, d)
					}
				}
			}
		}
	}
}

// TestStressAllCellsWithFeedback runs deep random programs mixing every
// unitary kind with mid-circuit measurement, reset, and classical
// control, and demands bit-identical classical results between the
// single-device engine and every transport × plan cell at several fleet
// sizes: equal seeds collapse identically everywhere. The naive cells
// also reproduce the state exactly — a measurement's probability is one
// balanced tree over the index space, of which each partition sums a
// subtree. A lazy plan measures a qubit wherever its remaps left it, so
// its tree adds the same terms in another order and the renormalized
// state agrees within rounding only.
func TestStressAllCellsWithFeedback(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	n := 8
	for trial := 0; trial < 4; trial++ {
		c := randomProgram(rng, n, 200)
		ref, err := core.NewSingleDevice(core.Config{Seed: 42}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, pes := range []int{2, 8, 32} {
			for _, cl := range matrixCells() {
				pes := pes
				if cl.lazy && pes == 32 {
					// 3 local bits cannot hold a 4-target gate's pairing
					// targets, which a lazy plan must keep local.
					pes = 16
				}
				st, cb, err := cl.run(c, 42, pes, 0)
				if err != nil {
					t.Fatalf("trial %d %s pes=%d: %v", trial, cl.name, pes, err)
				}
				if cb != ref.Cbits {
					t.Fatalf("trial %d %s pes=%d: cbits %b vs %b", trial, cl.name, pes, cb, ref.Cbits)
				}
				if d := st.MaxAbsDiff(ref.State); d > 1e-9 || d != 0 && !cl.lazy {
					t.Fatalf("trial %d %s pes=%d: state deviates by %g", trial, cl.name, pes, d)
				}
			}
		}
	}
}

func randomProgram(rng *rand.Rand, n, ops int) *circuit.Circuit {
	c := circuit.New("stress", n)
	c.NumClbits = 4
	kinds := unitaryKinds()
	for i := 0; i < ops; i++ {
		switch r := rng.Float64(); {
		case r < 0.04:
			c.Measure(rng.Intn(n), rng.Intn(4))
		case r < 0.06:
			c.Reset(rng.Intn(n))
		case r < 0.10:
			k := kinds[rng.Intn(len(kinds))]
			g := gate.New(k, rng.Perm(n)[:k.NumQubits()], angles(rng, k.NumParams())...)
			c.AppendCond(g, circuit.Condition{
				Offset: rng.Intn(3), Width: 1 + rng.Intn(2), Value: uint64(rng.Intn(2)),
			})
		default:
			k := kinds[rng.Intn(len(kinds))]
			c.Append(gate.New(k, rng.Perm(n)[:k.NumQubits()], angles(rng, k.NumParams())...))
		}
	}
	return c
}

func angles(rng *rand.Rand, np int) []float64 {
	p := make([]float64, np)
	for i := range p {
		p[i] = rng.NormFloat64()
	}
	return p
}
