package statevec_test

// The diagonal-run kernel is tested from outside the package: the runs
// come from compile.DiagRuns, and compile (through ckpt) imports statevec.

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"svsim/internal/baseline"
	"svsim/internal/circuit"
	"svsim/internal/compile"
	"svsim/internal/gate"
	"svsim/internal/qasmbench"
	"svsim/internal/statevec"
)

// diagKinds is every statically diagonal kind a run may hold.
var diagKinds = func() (ks []gate.Kind) {
	for k := gate.Kind(0); int(k) < gate.NumKinds; k++ {
		if k.Diagonal() && k.NumQubits() > 0 {
			ks = append(ks, k)
		}
	}
	return ks
}()

// randomDense returns a dense normalized random state.
func randomDense(rng *rand.Rand, n int, style statevec.KernelStyle) *statevec.State {
	s := statevec.New(n)
	s.Style = style
	var norm float64
	for i := range s.Re {
		s.Re[i], s.Im[i] = rng.NormFloat64(), rng.NormFloat64()
		norm += s.Re[i]*s.Re[i] + s.Im[i]*s.Im[i]
	}
	norm = math.Sqrt(norm)
	for i := range s.Re {
		s.Re[i] /= norm
		s.Im[i] /= norm
	}
	return s
}

// randomStretch draws 1..40 diagonal gates on n qubits. With common set,
// every gate has qubit n-1 among its operands (a run with a pinned
// qubit); otherwise operands are free, which on the wider registers
// overflows the two tables and forces a split.
func randomStretch(rng *rand.Rand, n int, common bool) *circuit.Circuit {
	c := circuit.New("stretch", n)
	for k := 1 + rng.Intn(40); k > 0; k-- {
		kind := diagKinds[rng.Intn(len(diagKinds))]
		if common && kind == gate.ID {
			kind = gate.CU1
		}
		ops := rng.Perm(n)[:kind.NumQubits()]
		if common {
			pinned := false
			for _, q := range ops {
				pinned = pinned || q == n-1
			}
			if !pinned {
				ops[rng.Intn(len(ops))] = n - 1
			}
		}
		params := make([]float64, kind.NumParams())
		for i := range params {
			params[i] = (rng.Float64()*2 - 1) * 2 * math.Pi
		}
		c.Append(gate.New(kind, ops, params...))
	}
	return c
}

// prepareRun loads run of c into d under layout perm.
func prepareRun(d *statevec.DiagTables, c *circuit.Circuit, run *compile.Run, perm []int) {
	d.Prepare(run.Gates, run.Pinned, run.Qubits, run.Terms(c.Ops, nil), run.Table, perm)
}

// applyStretch executes c on s, which is laid out under perm: its runs
// through apply, every other gate (a stretch the marker left open)
// through the per-gate kernel at its physical operands.
func applyStretch(s *statevec.State, c *circuit.Circuit, perm circuit.Permutation, apply func(d *statevec.DiagTables)) {
	var d statevec.DiagTables
	runs := compile.DiagRuns(c)
	for i := 0; i < len(c.Ops); i++ {
		if len(runs) > 0 && runs[0].Op == i {
			prepareRun(&d, c, &runs[0], perm)
			apply(&d)
			i += runs[0].Gates - 1
			runs = runs[1:]
			continue
		}
		g := perm.PhysicalGate(&c.Ops[i].G)
		s.Apply(&g)
	}
}

// TestDiagRunKernel is the property test of the run kernel: random
// stretches over every statically diagonal kind on 2..14 qubits, with
// and without a qubit common to all gates,
//
//	(a) window by window (2^1..2^6) and as 2, 3 and 7 pool shares is
//	    bit-identical to the whole-state call with equal (amps, flops),
//	    in both loop styles,
//	(b) under four random logical→physical layouts the un-permuted
//	    result is bit-identical to the identity layout's,
//	(c) the result is within 1e-12 of applying the gates one by one and
//	    of internal/baseline's generic-matrix simulator.
func TestDiagRunKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	pools := map[int]*statevec.Pool{}
	for _, parts := range []int{2, 3, 7} {
		pools[parts] = statevec.NewPool(parts)
		defer pools[parts].Close()
	}
	merged, split := 0, 0
	for n := 2; n <= 14; n++ {
		for trial := 0; trial < 4; trial++ {
			c := randomStretch(rng, n, trial%2 == 0)
			runs := compile.DiagRuns(c)
			merged += len(runs)
			if len(runs) > 1 {
				split++
			}
			id := circuit.IdentityPermutation(n)
			var ref *statevec.State // identity layout, whole-state calls, Vectorized
			for _, style := range []statevec.KernelStyle{statevec.Vectorized, statevec.Scalar} {
				start := randomDense(rand.New(rand.NewSource(int64(100*n+trial))), n, style)
				want := start.Clone()
				want.Stats = statevec.Stats{}
				applyStretch(want, c, id, want.ApplyRun)
				if ref == nil {
					ref = want
				} else if d := want.MaxAbsDiff(ref); d != 0 {
					t.Fatalf("n=%d trial=%d: Scalar deviates from Vectorized by %g", n, trial, d)
				}

				for wbits := 1; wbits <= 6 && wbits <= n; wbits++ {
					got := start.Clone()
					got.Stats = statevec.Stats{}
					var amps, flops int64
					applyStretch(got, c, id, func(d *statevec.DiagTables) {
						for lo := 0; lo < got.Dim; lo += 1 << uint(wbits) {
							a, f := got.ApplyRunTile(d, lo, lo+1<<uint(wbits))
							amps += a
							flops += f
						}
					})
					if d := got.MaxAbsDiff(want); d != 0 {
						t.Fatalf("n=%d trial=%d style=%d: 2^%d windows deviate from the whole state by %g", n, trial, style, wbits, d)
					}
					// got's own stats hold the open stretches' gates; the
					// runs' work was returned to the caller.
					if amps+got.Stats.AmpsTouched != want.Stats.AmpsTouched || flops+got.Stats.FlopEst != want.Stats.FlopEst {
						t.Fatalf("n=%d trial=%d style=%d: 2^%d windows visit (amps=%d flops=%d), whole state (amps=%d flops=%d)", n, trial, style, wbits,
							amps+got.Stats.AmpsTouched, flops+got.Stats.FlopEst, want.Stats.AmpsTouched, want.Stats.FlopEst)
					}
				}

				for parts, pool := range pools {
					got := start.Clone()
					got.Stats = statevec.Stats{}
					applyStretch(got, c, id, func(d *statevec.DiagTables) { pool.ApplyRunShared(got, d) })
					if d := got.MaxAbsDiff(want); d != 0 {
						t.Fatalf("n=%d trial=%d style=%d: %d shares deviate from the unsplit call by %g", n, trial, style, parts, d)
					}
					if got.Stats != want.Stats {
						t.Fatalf("n=%d trial=%d style=%d: %d shares charge %+v, unsplit %+v", n, trial, style, parts, got.Stats, want.Stats)
					}
				}

				for layout := 0; layout < 4; layout++ {
					perm := circuit.Permutation(rng.Perm(n))
					phys := statevec.New(n)
					phys.Style = style
					for x := 0; x < start.Dim; x++ {
						phys.Re[perm.PhysicalIndex(x)], phys.Im[perm.PhysicalIndex(x)] = start.Re[x], start.Im[x]
					}
					applyStretch(phys, c, perm, phys.ApplyRun)
					got := statevec.New(n)
					statevec.Unpermute(got.Re, phys.Re, 0, perm)
					statevec.Unpermute(got.Im, phys.Im, 0, perm)
					if d := got.MaxAbsDiff(want); d != 0 {
						t.Fatalf("n=%d trial=%d style=%d: layout %v deviates from the identity layout by %g", n, trial, style, perm, d)
					}
				}

				perGate := start.Clone()
				for i := range c.Ops {
					perGate.Apply(&c.Ops[i].G)
				}
				if d := want.MaxAbsDiff(perGate); d > 1e-12 {
					t.Fatalf("n=%d trial=%d style=%d: merged deviates from gate by gate by %g", n, trial, style, d)
				}
			}
			if n > 10 {
				continue // the oracle is a dense-matrix simulator
			}
			// |0...0> is an eigenstate of every diagonal gate, so the
			// oracle comparison starts from a layer of Hadamards and
			// rotations.
			full := circuit.New("oracle", n)
			for q := 0; q < n; q++ {
				full.H(q)
				full.RY(0.3+float64(q), q)
			}
			st := statevec.New(n)
			for i := range full.Ops {
				st.Apply(&full.Ops[i].G)
			}
			full.Ops = append(full.Ops, c.Ops...)
			applyStretch(st, c, id, st.ApplyRun)
			oracle, err := baseline.NewGenericMatrix().Run(full)
			if err != nil {
				t.Fatal(err)
			}
			for i, a := range oracle {
				if d := cmplx.Abs(a - st.Amplitude(i)); d > 1e-12 {
					t.Fatalf("n=%d trial=%d: amplitude %d deviates from the generic-matrix oracle by %g", n, trial, i, d)
				}
			}
		}
	}
	if merged == 0 || split == 0 {
		t.Fatalf("the draws must exercise the kernel: %d runs, %d stretches split over several", merged, split)
	}
}

// BenchmarkDiagRun measures the run kernel on the shapes the svperf
// workloads execute — QFT(22)'s CU1 ladders onto q21 (21 gates, two
// tables) and q11 (11 gates, one table), whose pinned qubit lies above
// the 256-index block so each block is one stretch, its ladder onto q5 (5
// gates, pinned inside the block: the stretches of 32 below it), and a CZ
// layer of RQC(20) (no pinned qubit) — and on the shape that gains least,
// two disjoint CZ (the pass visits the whole state to change 7/16 of it),
// under the identity layout and a shuffled one, next to the same gates
// applied one by one, each on the Go loops (/go) and on the AVX2 twins
// (/avx2). ns/amp is per amplitude of the state, as the svperf kernel
// probes report it.
func BenchmarkDiagRun(b *testing.B) {
	qft := qasmbench.QFT(22)
	// QFT's ladder onto q_i is its run of i gates.
	ladder := func(i int) compile.Run {
		for _, r := range compile.DiagRuns(qft) {
			if r.Gates == i {
				return r
			}
		}
		b.Fatalf("QFT(22) has no run of %d gates", i)
		return compile.Run{}
	}
	rqc := circuit.New("cz_layer", 20)
	for q := 0; q+1 < 20; q += 2 {
		rqc.CZ(q, q+1)
	}
	pair := circuit.New("cz_pair", 22)
	pair.CZ(3, 17).CZ(9, 20)
	for _, bc := range []struct {
		name string
		c    *circuit.Circuit
		run  compile.Run
	}{
		{"qft22_cu1x21", qft, ladder(21)},
		{"qft22_cu1x11", qft, ladder(11)},
		{"qft22_cu1x5", qft, ladder(5)},
		{"rqc20_czx10", rqc, compile.DiagRuns(rqc)[0]},
		{"n22_czx2", pair, compile.DiagRuns(pair)[0]},
	} {
		n, run := bc.c.NumQubits, bc.run
		statevec.ForEachBodyPath(func(path string) {
			b.Run(bc.name+"/per_gate/"+path, func(b *testing.B) {
				s := randomDense(rand.New(rand.NewSource(1)), n, statevec.Vectorized)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := run.Op; j < run.Op+run.Gates; j++ {
						s.Apply(&bc.c.Ops[j].G)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.Dim), "ns/amp")
			})
			for _, layout := range []string{"identity", "permuted"} {
				perm := circuit.IdentityPermutation(n)
				if layout == "permuted" {
					perm = rand.New(rand.NewSource(7)).Perm(n)
				}
				b.Run(fmt.Sprintf("%s/%s/%s", bc.name, layout, path), func(b *testing.B) {
					s := randomDense(rand.New(rand.NewSource(1)), n, statevec.Vectorized)
					var d statevec.DiagTables
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						prepareRun(&d, bc.c, &run, perm)
						s.ApplyRun(&d)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.Dim), "ns/amp")
				})
			}
		})
	}
}
