package statevec_test

import (
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"

	"svsim/internal/baseline"
	"svsim/internal/circuit"
	"svsim/internal/statevec"
)

// randomString draws a Pauli string of weight 2..8 on n qubits whose
// pivot — the highest X or Y — sits on qubit pivot (pivot < 0: an all-Z
// string): Z above the pivot, X, Y or Z below, at random qubits.
func randomString(rng *rand.Rand, n, pivot int) []circuit.PauliTerm {
	w := 2 + rng.Intn(min(8, n)-1)
	var terms []circuit.PauliTerm
	if pivot >= 0 {
		terms = append(terms, circuit.PauliTerm{P: []circuit.Pauli{'X', 'Y'}[rng.Intn(2)], Q: pivot})
	}
	for _, q := range rng.Perm(n) {
		if len(terms) == w {
			break
		}
		if q == pivot {
			continue
		}
		p := circuit.PauliZ
		if q < pivot {
			p = []circuit.Pauli{'X', 'Y', 'Z'}[rng.Intn(3)]
		}
		terms = append(terms, circuit.PauliTerm{P: p, Q: q})
	}
	rng.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
	return terms
}

// rotation is the PauliRot of exp(-i theta P / 2) for the string terms.
func rotation(terms []circuit.PauliTerm, theta float64, neg bool) statevec.PauliRot {
	r := statevec.PauliRot{Theta: theta, Neg: neg, Gates: 1}
	for _, t := range terms {
		if t.P != 'Z' {
			r.X |= 1 << uint(t.Q)
		}
		if t.P != 'X' {
			r.Z |= 1 << uint(t.Q)
		}
	}
	return r
}

// TestPauliRotKernel checks the one-pass rotation against the window it
// stands for — circuit.ExpPauli's basis changes, CX ladder, rz and
// inverse, run gate by gate through internal/baseline's dense-matrix
// simulator, which shares no code with the kernels — for random strings
// of weight 2..8 with the pivot on bit 0, in the middle, on top and
// absent (all Z), on 3, 10 and 14 qubits, at angles that include the
// degenerate ones. Scalar, Vectorized, a 3-worker Pool and the state cut
// into 2, 4 and 8 partitions (Z factors and nothing else above the
// partition) must agree exactly, work counters included.
func TestPauliRotKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	pool := statevec.NewPool(3)
	defer pool.Close()
	oracle := baseline.NewGenericMatrix()
	for _, n := range []int{3, 10, 14} {
		for _, pivot := range []int{0, n / 2, n - 1, -1} {
			for _, theta := range []float64{0, 0.3, -0.3, math.Pi, 2 * math.Pi, -7} {
				terms := randomString(rng, n, pivot)
				neg := rng.Intn(2) == 1
				rot := rotation(terms, theta, neg)
				if pivot >= 0 && bits.Len(uint(rot.X))-1 != pivot || pivot < 0 && rot.X != 0 {
					t.Fatalf("n=%d: string %v does not put the pivot on %d", n, terms, pivot)
				}

				// A dense start state the oracle can reach from |0...0>.
				full := circuit.New("window", n)
				for q := 0; q < n; q++ {
					full.H(q)
					full.RY(0.3+float64(q), q)
					full.RZ(1.1-0.2*float64(q), q)
				}
				start := statevec.New(n)
				for i := range full.Ops {
					start.Apply(&full.Ops[i].G)
				}
				start.Stats = statevec.Stats{}
				if neg {
					full.ExpPauli(-theta, terms)
				} else {
					full.ExpPauli(theta, terms)
				}
				want, err := oracle.Run(full)
				if err != nil {
					t.Fatal(err)
				}

				vec := start.Clone()
				vec.Style = statevec.Vectorized
				vec.ApplyPauliRot(&rot)
				for i, a := range want {
					if d := cmplx.Abs(a - vec.Amplitude(i)); d > 1e-12 {
						t.Fatalf("n=%d %v theta=%g neg=%v: amplitude %d deviates from the lowered window by %g", n, terms, theta, neg, i, d)
					}
				}
				pairs := int64(vec.Dim / 2)
				if rot.X == 0 {
					pairs = int64(vec.Dim)
				}
				if st := vec.Stats; st.Gates != 1 || st.Sweeps != 1 || st.AmpsTouched != int64(vec.Dim) ||
					st.BytesTouched != 16*int64(vec.Dim) || st.FlopEst != 12*pairs {
					t.Fatalf("n=%d %v: one rotation charges %+v", n, terms, st)
				}

				sc := start.Clone()
				sc.Style = statevec.Scalar
				sc.ApplyPauliRot(&rot)
				if d := sc.MaxAbsDiff(vec); d != 0 || sc.Stats != vec.Stats {
					t.Fatalf("n=%d %v: Scalar and Vectorized differ by %g (stats %+v vs %+v)", n, terms, d, sc.Stats, vec.Stats)
				}
				shared := start.Clone()
				pool.ApplyPauliRotShared(shared, &rot)
				if d := shared.MaxAbsDiff(vec); d != 0 || shared.Stats != vec.Stats {
					t.Fatalf("n=%d %v: 3 pool shares differ from the unsplit call by %g (stats %+v vs %+v)", n, terms, d, shared.Stats, vec.Stats)
				}
				for parts := 2; parts <= 8 && rot.X < vec.Dim/parts; parts *= 2 {
					size := vec.Dim / parts
					got := start.Clone()
					for r := 0; r < parts; r++ {
						part := &statevec.State{N: bits.Len(uint(size)) - 1, Dim: size, Base: r * size,
							Re: got.Re[r*size : (r+1)*size], Im: got.Im[r*size : (r+1)*size], Style: statevec.Vectorized}
						part.ApplyPauliRot(&rot)
					}
					if d := got.MaxAbsDiff(vec); d != 0 {
						t.Fatalf("n=%d %v: %d partitions differ from the whole state by %g", n, terms, parts, d)
					}
				}
			}
		}
	}
}
