package statevec

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"testing"

	"svsim/internal/gate"
)

// TestRunLoopBodies checks the bodies y, sx/sxdg, rx, ry and phase —
// the latter under the factors of z, s, sdg and tdg — and one controlled
// form of each against gate.Unitary embedded in the full space, which
// shares no code with the kernels, at every placement that changes the
// loop's shape: the target at bit 0, in the middle and on top, a control
// below the target (bit 0 pinned, so the run stride is 2) and above it.
// Scalar and Vectorized must agree exactly, and so must a 3-worker Pool,
// whose shares cut runs at points no window boundary does.
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

// TestFlopsPerPair pins FlopEst (the numerator of a run's arithmetic
// intensity) to what the bodies execute: flops per
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
		// Every diagonal kind runs phase: 4 mul + 2 add per amplitude.
		gate.Z: 12, gate.S: 12, gate.SDG: 12, gate.T: 12, gate.TDG: 12,
		gate.U1: 12, gate.RZ: 12, gate.RZZ: 12, gate.GPHASE: 12,
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

// spice overwrites scattered components of s with the values whose bits
// a sloppy twin gets wrong: both zeros, subnormals and both infinities
// (an infinity makes the NaN lanes; the input itself holds none, because
// which payload survives NaN op NaN depends on operand order).
func spice(rng *rand.Rand, s *State) {
	special := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -3e-309, math.Inf(1), math.Inf(-1)}
	for i := rng.Intn(3); i < s.Dim; i += 1 + rng.Intn(5) {
		if rng.Intn(2) == 0 {
			s.Re[i] = special[rng.Intn(len(special))]
		} else {
			s.Im[i] = special[rng.Intn(len(special))]
		}
	}
}

// firstBitDiff returns the first index at which a and b differ in the
// bits of a component (so -0 against +0 counts), or -1.
func firstBitDiff(a, b *State) int {
	for i := range a.Re {
		if math.Float64bits(a.Re[i]) != math.Float64bits(b.Re[i]) || math.Float64bits(a.Im[i]) != math.Float64bits(b.Im[i]) {
			return i
		}
	}
	return -1
}

// TestLoneDiagonalIsOneGateRun: a lone gate whose diagonal normal form
// is one term (z, s, sdg, t, tdg, u1, bare and controlled) runs on phase
// with that term as its factor, so it leaves the bits of the same gate
// executed as a one-gate diagonal run — under both loop styles, on both
// body paths, on the full state, partitions of a larger register
// (Base != 0), aligned tiles and the shares of a 3-worker pool, with the
// operands at every position, over spiced amplitudes. A compiler-fused
// multiply-add in phase or in mulAmp breaks it.
func TestLoneDiagonalIsOneGateRun(t *testing.T) {
	const n, tileBits, partBits = 8, 3, 5
	pool := NewPool(3)
	defer pool.Close()
	rng := rand.New(rand.NewSource(101))
	identity := make([]int, n)
	for q := range identity {
		identity[q] = q
	}
	layouts := []struct {
		name  string
		apply func(s *State, g *gate.Gate)
	}{
		{"full", func(s *State, g *gate.Gate) { s.Apply(g) }},
		{"tiles", func(s *State, g *gate.Gate) {
			for lo := 0; lo < s.Dim; lo += 1 << tileBits {
				s.ApplyTile(g, lo, lo+1<<tileBits)
			}
		}},
		{"partitions", func(s *State, g *gate.Gate) {
			for base := 0; base < s.Dim; base += 1 << partBits {
				pe := &State{N: partBits, Dim: 1 << partBits, Re: s.Re[base : base+1<<partBits], Im: s.Im[base : base+1<<partBits], Base: base, Style: s.Style}
				pe.Apply(g)
			}
		}},
		{"pool shares", func(s *State, g *gate.Gate) { pool.ApplyShared(s, g) }},
	}

	var kinds []gate.Kind
	for i := 0; i < gate.NumKinds; i++ {
		k := gate.Kind(i)
		if k.Diagonal() && k.Unitary() && k.NumQubits() > 0 {
			g := gate.New(k, operandsAround(k, 0, 1, n), randAngles(rng, k.NumParams())...)
			if len(g.AppendDiagTerms(nil)) == 1 {
				kinds = append(kinds, k)
			}
		}
	}
	if len(kinds) != 12 {
		t.Fatalf("one-term diagonal kinds %v, want z s sdg t tdg u1 and their controlled forms", kinds)
	}
	for _, k := range kinds {
		for target := 0; target < n; target++ {
			for _, dir := range []int{-1, 1} {
				g := gate.New(k, operandsAround(k, target, dir, n), randAngles(rng, k.NumParams())...)
				start := randomState(rng, n, Vectorized)
				spice(rng, start)
				terms := g.AppendDiagTerms(nil)
				var d DiagTables
				d.Prepare(1, terms[0].Mask, [2]uint64{}, terms, []uint8{0}, identity)
				run := start.Clone()
				run.ApplyRun(&d)
				forEachBodyPath(func(path string) {
					for _, style := range []KernelStyle{Scalar, Vectorized} {
						for _, l := range layouts {
							lone := start.Clone()
							lone.Style = style
							l.apply(lone, &g)
							if i := firstBitDiff(lone, run); i >= 0 {
								t.Fatalf("%s, %s path, style=%d, %s: amplitude %d is (%x, %x) from the lone gate, (%x, %x) from the one-gate run", g, path, style, l.name, i,
									math.Float64bits(lone.Re[i]), math.Float64bits(lone.Im[i]), math.Float64bits(run.Re[i]), math.Float64bits(run.Im[i]))
							}
						}
					}
				})
			}
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
// target on qubit 0, in the middle and on top, and cx, ccx and cu1 with a
// control on qubit 0 or 1 (c0, c1; ccx's other control above) and the
// target in the middle, on an in-cache state (n = 13, 128 KiB) and a
// DRAM-sized one (n = 22, 64 MiB), each on the body's Go loop (/go) and
// on its AVX2 twin (/avx2, run_amd64.s: pairs of blocks where the target
// is the low pin, blended blocks where a control is). ns/amp is per
// amplitude of the state, as the svperf kernel probes report it.
func BenchmarkBodies(b *testing.B) {
	for _, n := range []int{13, 22} {
		rng := rand.New(rand.NewSource(1))
		s := randomState(rng, n, Vectorized)
		var cases []struct {
			name string
			g    gate.Gate
		}
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
				cases = append(cases, struct {
					name string
					g    gate.Gate
				}{fmt.Sprintf("%s_%s", k, at.name), g})
			}
		}
		for _, k := range []gate.Kind{gate.CX, gate.CCX, gate.CU1} {
			for c := range 2 {
				ops := []int{c, n / 2}
				if k == gate.CCX {
					ops = []int{c, n/2 + 1, n / 2}
				}
				cases = append(cases, struct {
					name string
					g    gate.Gate
				}{fmt.Sprintf("%s_c%d", k, c), gate.New(k, ops, randAngles(rng, k.NumParams())...)})
			}
		}
		for _, c := range cases {
			forEachBodyPath(func(path string) {
				b.Run(fmt.Sprintf("%s_n%d/%s", c.name, n, path), func(b *testing.B) {
					for range b.N {
						s.Apply(&c.g)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.Dim), "ns/amp")
				})
			})
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
