package statevec

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"testing"

	"svsim/internal/gate"
)

// TestRunLoopBodies checks the bodies that were closures until PR 21 —
// y, sx/sxdg, rx, ry, z, s, sdg, tdg and one controlled form of each —
// against gate.Unitary embedded in the full space, which shares no code
// with the kernels, at every placement that changes the loop's shape:
// the target at bit 0, in the middle and on top, a control below the
// target (bit 0 pinned, so the run stride is 2) and above it. Scalar and
// Vectorized must agree exactly, and so must a 3-worker Pool, whose
// shares cut runs at points no window boundary does.
func TestRunLoopBodies(t *testing.T) {
	const n = 7
	const mid, top = n / 2, n - 1
	// Operand lists end with the target; controls come first.
	one := [][]int{{0}, {mid}, {top}}
	ctl := [][]int{{top, 0}, {0, mid}, {top, mid}, {0, top}, {mid, top}}
	ctl3 := [][]int{{2, mid, top, 0}, {0, 1, 2, mid}, {0, mid + 1, top, mid}, {0, 1, mid, top}}
	rng := rand.New(rand.NewSource(83))
	pool := NewPool(3)
	defer pool.Close()
	for _, tc := range []struct {
		kind gate.Kind
		ops  [][]int
	}{
		{gate.Y, one}, {gate.SX, one}, {gate.SXDG, one}, {gate.RX, one}, {gate.RY, one},
		{gate.Z, one}, {gate.S, one}, {gate.SDG, one}, {gate.TDG, one},
		{gate.CY, ctl}, {gate.C3SQRTX, ctl3}, {gate.CRX, ctl}, {gate.CRY, ctl},
		{gate.CZ, ctl}, {gate.CS, ctl}, {gate.CSDG, ctl}, {gate.CTDG, ctl},
	} {
		for _, ops := range tc.ops {
			g := gate.New(tc.kind, ops, randAngles(rng, tc.kind.NumParams())...)
			start := randomState(rng, n, Vectorized)
			want := start.Clone()
			applyDense(want, g)

			vec := start.Clone()
			vec.Apply(&g)
			if d := vec.MaxAbsDiff(want); d > 1e-12 {
				t.Errorf("%s: deviates from the dense unitary by %g", g, d)
			}
			sc := start.Clone()
			sc.Style = Scalar
			sc.Apply(&g)
			if d := sc.MaxAbsDiff(vec); d != 0 {
				t.Errorf("%s: Scalar and Vectorized differ by %g", g, d)
			}
			shared := start.Clone()
			pool.ApplyShared(shared, &g)
			if d := shared.MaxAbsDiff(vec); d != 0 || shared.Stats != vec.Stats {
				t.Errorf("%s: 3 pool shares differ from Apply by %g (stats %+v vs %+v)", g, d, shared.Stats, vec.Stats)
			}
		}
	}

	// sx then sxdg restores every amplitude: both halve a sum and a
	// difference of the same two numbers, so the round trip loses at most
	// an ulp of an amplitude below 1.
	for _, q := range []int{0, mid, top} {
		s := randomState(rng, n, Vectorized)
		want := s.Clone()
		sx, sxdg := gate.NewSX(q), gate.NewSXDG(q)
		s.Apply(&sx)
		s.Apply(&sxdg)
		if d := s.MaxAbsDiff(want); d > 1e-15 {
			t.Errorf("sx then sxdg on q%d moves the state by %g", q, d)
		}
	}
}

// TestFlopsPerPair pins FlopEst (the numerator of
// perfmodel.ArithmeticIntensity) to what the bodies execute: flops per
// two visited amplitudes — a pair, for the pairing bodies — counting
// every add, multiply and negation. A controlled kind must charge its
// base kind's rate on the amplitudes its controls leave.
func TestFlopsPerPair(t *testing.T) {
	const n = 6
	perPair := map[gate.Kind]int64{
		gate.ID: 0, gate.X: 0, gate.SWAP: 0, // moves only
		gate.Y:  2,                 // two negations
		gate.H:  8,                 // 4 add + 4 mul
		gate.SX: 12, gate.SXDG: 12, // 4 + 4 add, 4 mul
		gate.RX: 12, gate.RY: 12, gate.RXX: 12, // 4 x (2 mul + 1 add)
		gate.U3: 28, gate.U2: 28, // 4 x (4 mul + 3 add)
		gate.Z: 4, gate.S: 2, gate.SDG: 2, // negations per amplitude: 2, 1, 1
		gate.T: 8, gate.TDG: 8, // 2 add + 2 mul per amplitude
		gate.U1: 12, gate.RZ: 12, gate.RZZ: 12, gate.GPHASE: 12, // 4 mul + 2 add per amplitude
		gate.RCCX: 2 * 8 * 8, gate.RC3X: 2 * 8 * 16, // 8 flops per matrix element per orbit
	}
	rng := rand.New(rand.NewSource(89))
	for i := 0; i < gate.NumKinds; i++ {
		k := gate.Kind(i)
		if !k.Unitary() {
			continue
		}
		want, ok := perPair[k.BaseKind()]
		if !ok {
			t.Errorf("%s: base kind %s has no flop count in the table", k, k.BaseKind())
			continue
		}
		g := gate.New(k, sampleOperands(rng, k, n), randAngles(rng, k.NumParams())...)
		s := randomState(rng, n, Vectorized)
		s.Apply(&g)
		if k != gate.ID && s.Stats.AmpsTouched == 0 {
			t.Errorf("%s visited nothing", g)
		}
		if 2*s.Stats.FlopEst != want*s.Stats.AmpsTouched {
			t.Errorf("%s: %d flops over %d amplitudes, want %d per pair", g, s.Stats.FlopEst, s.Stats.AmpsTouched, want)
		}
	}
}

// TestNoFuncValuesOnTheAmplitudePath keeps the slow loop shape out: a
// body called through a function value costs 1.3-3x its own arithmetic
// per amplitude (EXPERIMENTS.md, PR 21), and nothing about a closure
// taking body looks slow in review. So in the kernel files no function
// takes a func-typed parameter, and no method of iter, window or
// DiagTables contains a func literal.
func TestNoFuncValuesOnTheAmplitudePath(t *testing.T) {
	hot := map[string]bool{"iter": true, "window": true, "DiagTables": true}
	fset := token.NewFileSet()
	for _, name := range []string{"kernels.go", "window.go", "diagrun.go", "paulirot.go", "run_amd64.go", "run_other.go"} {
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			for _, p := range fn.Type.Params.List {
				if _, isFunc := p.Type.(*ast.FuncType); isFunc {
					t.Errorf("%s: %s takes a func-typed parameter", fset.Position(p.Pos()), fn.Name.Name)
				}
			}
			if fn.Recv == nil || fn.Body == nil {
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			id, ok := recv.(*ast.Ident)
			if !ok || !hot[id.Name] {
				continue
			}
			ast.Inspect(fn.Body, func(node ast.Node) bool {
				if lit, ok := node.(*ast.FuncLit); ok {
					t.Errorf("%s: func literal inside %s.%s", fset.Position(lit.Pos()), id.Name, fn.Name.Name)
				}
				return true
			})
		}
	}
}

// operandsAround places kind k's last operand (the target of a controlled
// or matrix kind) on qubit t and the others on the next qubits in
// direction dir (+1 up, -1 down), wrapping at the ends of the register.
func operandsAround(k gate.Kind, t, dir, n int) []int {
	ops := make([]int, k.NumQubits())
	for i := range ops {
		ops[len(ops)-1-i] = ((t+dir*i)%n + n) % n
	}
	return ops
}

// BenchmarkBodies is the per-body number behind "a specialized body
// costs only its own arithmetic" (paper §3.2.1): every base kind, the
// target on qubit 0, in the middle and on top, on an in-cache state
// (n = 13, 128 KiB) and a DRAM-sized one (n = 22, 64 MiB), each on the
// body's Go loop (/go) and on its AVX2 twin (/avx2, run_amd64.s; at "lo"
// the runs are too short for the twin and both take the Go loop). ns/amp
// is per amplitude of the state, as the svperf kernel probes report it.
func BenchmarkBodies(b *testing.B) {
	for _, n := range []int{13, 22} {
		rng := rand.New(rand.NewSource(1))
		s := randomState(rng, n, Vectorized)
		for i := 0; i < gate.NumKinds; i++ {
			k := gate.Kind(i)
			if !k.Unitary() || k.BaseKind() != k || k.NumQubits() == 0 {
				continue
			}
			for _, at := range []struct {
				name string
				pos  int
			}{{"lo", 0}, {"mid", n / 2}, {"hi", n - 1}} {
				g := gate.New(k, operandsAround(k, at.pos, 1, n), randAngles(rng, k.NumParams())...)
				forEachBodyPath(func(path string) {
					b.Run(fmt.Sprintf("%s_%s_n%d/%s", k, at.name, n, path), func(b *testing.B) {
						for range b.N {
							s.Apply(&g)
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.Dim), "ns/amp")
					})
				})
			}
		}
	}
}

// pauliString builds the rotation about a weight-w string on n qubits
// whose pivot (highest X or Y) sits on qubit pivot: Z above it, X and Y
// alternating below.
func pauliString(w, pivot, n int) PauliRot {
	r := PauliRot{X: 1 << uint(pivot), Theta: 0.7, Gates: 1}
	for k, q := 1, pivot-1; k < w; k, q = k+1, q-1 {
		if q < 0 {
			q = n - 1 // out of room below the pivot: Z factors from the top down
		}
		switch {
		case q > pivot:
			r.Z |= 1 << uint(q)
		case k%2 == 1:
			r.X |= 1 << uint(q)
			r.Z |= 1 << uint(q)
		default:
			r.X |= 1 << uint(q)
		}
	}
	return r
}

// BenchmarkPauliRot is the gadget body's number: one pass whatever the
// weight of the string (2, 4, 8), the pivot on qubit 0, on qubit 2 (runs
// of 4, the shortest the twin takes), in the middle and on top, on the
// vqe_sweep state (n = 10, 16 KiB), an in-cache one (n = 13) and a
// DRAM-sized one (n = 22), on the Go loop (/go) and on its AVX2 twin
// (/avx2; at "lo" both take the Go loop). ns/amp is per amplitude of the
// state, comparable with BenchmarkBodies: the lowered window costs ~4w+1
// of those passes.
func BenchmarkPauliRot(b *testing.B) {
	for _, n := range []int{10, 13, 22} {
		s := randomState(rand.New(rand.NewSource(1)), n, Vectorized)
		for _, w := range []int{2, 4, 8} {
			for _, at := range []struct {
				name string
				pos  int
			}{{"lo", 0}, {"q2", 2}, {"mid", n / 2}, {"hi", n - 1}} {
				r := pauliString(w, at.pos, n)
				forEachBodyPath(func(path string) {
					b.Run(fmt.Sprintf("w%d_%s_n%d/%s", w, at.name, n, path), func(b *testing.B) {
						for range b.N {
							s.ApplyPauliRot(&r)
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.Dim), "ns/amp")
					})
				})
			}
		}
	}
}
