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
	applyRuns(s, c, compile.DiagRuns(c, false), perm, apply)
}

// applyRuns is applyStretch with the runs given.
func applyRuns(s *statevec.State, c *circuit.Circuit, runs []compile.Run, perm circuit.Permutation, apply func(d *statevec.DiagTables)) {
	var d statevec.DiagTables
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
			runs := compile.DiagRuns(c, false)
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

// randomWindows draws a stream of cx-and-phase windows on n >= 4 qubits:
// each a random cx network, then the same network reversed, with t, tdg,
// s, sdg, z, u1 and rz between the cx and a cu1, crz or rzz on random
// operands after the reversal. One window in two is a near miss: an x, an
// h or a barrier inside it, a network that does not end at the identity,
// a parity widened past three qubits, or a two-qubit phase inside it.
func randomWindows(rng *rand.Rand, n int) *circuit.Circuit {
	c := circuit.New("windows", n)
	phases := []gate.Kind{gate.T, gate.TDG, gate.S, gate.SDG, gate.Z, gate.U1, gate.RZ}
	pairs := []gate.Kind{gate.CU1, gate.CRZ, gate.RZZ}
	draw := func(kinds []gate.Kind) {
		k := kinds[rng.Intn(len(kinds))]
		ps := make([]float64, k.NumParams())
		for i := range ps {
			ps[i] = (rng.Float64()*2 - 1) * 2 * math.Pi
		}
		c.Append(gate.New(k, rng.Perm(n)[:k.NumQubits()], ps...))
	}
	phase := func() {
		for i := rng.Intn(3); i > 0; i-- {
			draw(phases)
		}
	}
	for w := 0; w < 8; w++ {
		var net [][2]int
		for k := 1 + rng.Intn(3); k > 0; k-- {
			p := rng.Perm(n)
			net = append(net, [2]int{p[0], p[1]})
		}
		for _, e := range net {
			c.CX(e[0], e[1])
			phase()
		}
		miss := rng.Intn(12)
		switch miss {
		case 0:
			c.X(rng.Intn(n))
		case 1:
			c.H(rng.Intn(n))
		case 2:
			c.Barrier()
		case 3:
			p := rng.Perm(n) // three cx onto one target: the third passes the cap
			c.CX(p[0], p[3]).CX(p[1], p[3]).CX(p[2], p[3])
			draw(phases)
		case 4:
			draw(pairs)
		}
		for i := len(net) - 1; i >= 0; i-- {
			if miss == 5 && i == 0 {
				break // the network does not return to the identity
			}
			c.CX(net[i][0], net[i][1])
			phase()
		}
		draw(pairs)
	}
	return c
}

// TestThroughCXWindows is the property test of the fused rule: seeded
// cx-and-phase windows and their near misses on 4..10 qubits, executed as
// the fused plan's runs (every other op gate by gate) from a random
// state, agree with the generic-matrix oracle and with the gates applied
// one by one within 1e-12, and are bit-identical under a random layout.
func TestThroughCXWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	through, runs := 0, 0
	for n := 4; n <= 10; n++ {
		for trial := 0; trial < 6; trial++ {
			c := randomWindows(rng, n)
			rs := compile.DiagRuns(c, true)
			for _, r := range rs {
				if r.ThroughCX {
					through++
				}
			}
			runs += len(rs)
			prep := circuit.New("prep", n)
			for q := 0; q < n; q++ {
				prep.H(q)
				prep.RY(0.3+float64(q), q)
			}
			st := statevec.New(n)
			for i := range prep.Ops {
				st.Apply(&prep.Ops[i].G)
			}
			start := st.Clone()
			applyRuns(st, c, rs, circuit.IdentityPermutation(n), st.ApplyRun)

			perGate := start.Clone()
			for i := range c.Ops {
				perGate.Apply(&c.Ops[i].G)
			}
			if d := st.MaxAbsDiff(perGate); d > 1e-12 {
				t.Fatalf("n=%d trial=%d: runs deviate from gate by gate by %g", n, trial, d)
			}
			full := circuit.New("oracle", n) // the oracle takes no barrier
			full.Ops = append(full.Ops, prep.Ops...)
			for _, op := range c.Ops {
				if op.G.Kind != gate.BARRIER {
					full.Ops = append(full.Ops, op)
				}
			}
			oracle, err := baseline.NewGenericMatrix().Run(full)
			if err != nil {
				t.Fatal(err)
			}
			for i, a := range oracle {
				if d := cmplx.Abs(a - st.Amplitude(i)); d > 1e-12 {
					t.Fatalf("n=%d trial=%d: amplitude %d deviates from the generic-matrix oracle by %g", n, trial, i, d)
				}
			}

			perm := circuit.Permutation(rng.Perm(n))
			phys := statevec.New(n)
			for x := 0; x < start.Dim; x++ {
				phys.Re[perm.PhysicalIndex(x)], phys.Im[perm.PhysicalIndex(x)] = start.Re[x], start.Im[x]
			}
			applyRuns(phys, c, rs, perm, phys.ApplyRun)
			got := statevec.New(n)
			statevec.Unpermute(got.Re, phys.Re, 0, perm)
			statevec.Unpermute(got.Im, phys.Im, 0, perm)
			if d := got.MaxAbsDiff(st); d != 0 {
				t.Fatalf("n=%d trial=%d: layout %v deviates from the identity layout by %g", n, trial, perm, d)
			}
		}
	}
	if through < 100 {
		t.Fatalf("the draws must exercise the rule: %d of %d runs through cx", through, runs)
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
		for _, r := range compile.DiagRuns(qft, false) {
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
		{"rqc20_czx10", rqc, compile.DiagRuns(rqc, false)[0]},
		{"n22_czx2", pair, compile.DiagRuns(pair, false)[0]},
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
