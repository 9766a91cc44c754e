package statevec

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"svsim/internal/gate"
)

// forEachBodyPath calls f once with the run bodies on their Go loops and,
// where the CPU has AVX2, once on the assembly twins.
func forEachBodyPath(f func(path string)) {
	detected := haveAVX2
	defer func() { haveAVX2 = detected }()
	haveAVX2 = false
	f("go")
	if detected {
		haveAVX2 = true
		f("avx2")
	}
}

// bodyLayout is one of the four ways a body is reached.
type bodyLayout struct {
	name  string
	apply func(s *State, g *gate.Gate)
}

// bodyLayouts are the full state, aligned tiles, partitions of a larger
// register (Base != 0), each of 2^w amplitudes with w the smallest width
// of at least 3 (8 amplitudes, so a tile has runs the twins take) that
// holds g's pairing targets, and the shares of pool.
func bodyLayouts(pool *Pool) []bodyLayout {
	windowBits := func(g *gate.Gate, n int) int {
		wbits := 3
		for !windowFits(g, wbits) {
			wbits++
		}
		return min(wbits, n)
	}
	return []bodyLayout{
		{"full", func(s *State, g *gate.Gate) { s.Apply(g) }},
		{"tiles", func(s *State, g *gate.Gate) {
			size := 1 << windowBits(g, s.N)
			for lo := 0; lo < s.Dim; lo += size {
				a, f := s.ApplyTile(g, lo, lo+size)
				s.Stats.AddTileWork(1, a, f)
			}
		}},
		{"partitions", func(s *State, g *gate.Gate) {
			wbits := windowBits(g, s.N)
			for base := 0; base < s.Dim; base += 1 << wbits {
				pe := &State{N: wbits, Dim: 1 << wbits, Re: s.Re[base : base+1<<wbits], Im: s.Im[base : base+1<<wbits], Base: base, Style: Vectorized}
				pe.Apply(g)
				s.Stats.Add(pe.Stats)
			}
		}},
		{"pool shares", func(s *State, g *gate.Gate) { pool.ApplyShared(s, g) }},
	}
}

// twinMatchesGo applies g to copies of start through l on the twins and
// on the Go loops, and returns what differs: the first amplitude whose
// bits do, or the work reported.
func twinMatchesGo(start *State, g *gate.Gate, l bodyLayout) error {
	detected := haveAVX2
	defer func() { haveAVX2 = detected }()
	asm, plain := start.Clone(), start.Clone()
	haveAVX2 = true
	l.apply(asm, g)
	haveAVX2 = false
	l.apply(plain, g)
	if i := firstBitDiff(asm, plain); i >= 0 {
		return fmt.Errorf("n=%d %s, %s: amplitude %d is (%x, %x) from the twin, (%x, %x) from the Go loop", start.N, g, l.name, i,
			math.Float64bits(asm.Re[i]), math.Float64bits(asm.Im[i]), math.Float64bits(plain.Re[i]), math.Float64bits(plain.Im[i]))
	}
	if asm.Stats != plain.Stats {
		return fmt.Errorf("n=%d %s, %s: the twin reports %+v, the Go loop %+v", start.N, g, l.name, asm.Stats, plain.Stats)
	}
	return nil
}

// TestAsmBodiesMatchGo is the contract of run_amd64.s: an AVX2 twin
// leaves the bits its body's Go loop leaves, and reports the same work.
// Every unitary kind (each body bare and under controls) × the target on
// every qubit × the other operands below and above it × the four ways a
// body is reached — the full state, aligned tiles, partitions of a larger
// register (Base != 0), and the shares of a 3-worker pool — on 3, 6 and
// 12 qubits. TestLowPlacementsMatchGo covers every placement on the low
// qubits.
func TestAsmBodiesMatchGo(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	pool := NewPool(3)
	defer pool.Close()
	rng := rand.New(rand.NewSource(97))
	layouts := bodyLayouts(pool)

	for _, n := range []int{3, 6, 12} {
		for _, k := range windowKinds() {
			if k.NumQubits() > n {
				continue
			}
			for target := 0; target < n; target++ {
				for _, dir := range []int{-1, 1} {
					g := gate.New(k, operandsAround(k, target, dir, n), randAngles(rng, k.NumParams())...)
					start := randomState(rng, n, Vectorized)
					spice(rng, start)
					for _, l := range layouts {
						if err := twinMatchesGo(start, &g, l); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}

	// sx·sxdg and t·tdg restore the state on either path (each loses at
	// most an ulp of an amplitude below 1), with the target below the
	// twins' reach, in the middle and on top.
	const n = 7
	forEachBodyPath(func(path string) {
		for _, q := range []int{0, n / 2, n - 1} {
			for _, pair := range [][2]gate.Gate{{gate.NewSX(q), gate.NewSXDG(q)}, {gate.NewT(q), gate.NewTDG(q)}} {
				s := randomState(rng, n, Vectorized)
				want := s.Clone()
				s.Apply(&pair[0])
				s.Apply(&pair[1])
				if d := s.MaxAbsDiff(want); d > 1e-15 {
					t.Errorf("%s path: %s then %s moves the state by %g", path, pair[0], pair[1], d)
				}
			}
		}
	})
}

// TestAsmPauliRotMatchesGo is the same contract for iter.pauliRot's twin,
// whose partner chunk is permuted and whose signs vary per lane and per
// chunk: every lane pattern (x&3, z&3) × the pivot written as X and as Y
// (#Y even and odd, which makes f imaginary and real) × the pivot on q2
// (runs of 4, the shortest the twin takes) up to the top qubit, plus
// all-Z strings (x = 0) × degenerate and generic angles × the full state,
// partitions with Base != 0 and the shares of a 3-worker pool, on 3, 6 and 12
// qubits of spiced amplitudes. Qubits 2 and up other than the pivot draw
// I, X, Y or Z below it and I or Z above it.
func TestAsmPauliRotMatchesGo(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	defer func() { haveAVX2 = true }()
	pool := NewPool(3)
	defer pool.Close()
	rng := rand.New(rand.NewSource(101))

	layouts := []struct {
		name  string
		apply func(s *State, r *PauliRot)
	}{
		{"full", func(s *State, r *PauliRot) { s.ApplyPauliRot(r) }},
		{"partitions", func(s *State, r *PauliRot) {
			size := max(8, 1<<bits.Len(uint(r.X)))
			for base := 0; base < s.Dim; base += size {
				pe := &State{N: bits.Len(uint(size)) - 1, Dim: size, Re: s.Re[base : base+size], Im: s.Im[base : base+size], Base: base, Style: Vectorized}
				pe.ApplyPauliRot(r)
				s.Stats.Add(pe.Stats)
			}
		}},
		{"pool shares", func(s *State, r *PauliRot) { pool.ApplyPauliRotShared(s, r) }},
	}

	// upper draws the letters of qubits 2..n-1 other than the pivot.
	upper := func(r *PauliRot, pivot, n int) {
		for q := 2; q < n; q++ {
			if q == pivot {
				continue
			}
			letter := rng.Intn(4) // I, X, Y, Z
			if q > pivot && letter != 0 {
				letter = 3
			}
			if letter == 1 || letter == 2 {
				r.X |= 1 << uint(q)
			}
			if letter >= 2 {
				r.Z |= 1 << uint(q)
			}
		}
	}
	for _, n := range []int{3, 6, 12} {
		var rots []PauliRot
		for lanes := range 16 {
			xl, zl := lanes&3, lanes>>2
			for pivot := 2; pivot < n; pivot++ {
				for _, y := range []int{0, 1} {
					r := PauliRot{X: 1<<uint(pivot) | xl, Z: y<<uint(pivot) | zl, Neg: rng.Intn(2) == 1, Gates: 1}
					upper(&r, pivot, n)
					rots = append(rots, r)
				}
			}
			if xl == 0 {
				r := PauliRot{Z: zl, Neg: rng.Intn(2) == 1, Gates: 1}
				upper(&r, -1, n)
				rots = append(rots, r)
			}
		}
		for _, r := range rots {
			for _, theta := range []float64{0, 2 * math.Pi, 0.3, -0.3, -7} {
				r.Theta = theta
				start := randomState(rng, n, Vectorized)
				spice(rng, start)
				for _, l := range layouts {
					asm, plain := start.Clone(), start.Clone()
					haveAVX2 = true
					l.apply(asm, &r)
					haveAVX2 = false
					l.apply(plain, &r)
					if i := firstBitDiff(asm, plain); i >= 0 {
						t.Fatalf("n=%d %+v, %s: amplitude %d is (%x, %x) from the twin, (%x, %x) from the Go loop", n, r, l.name, i,
							math.Float64bits(asm.Re[i]), math.Float64bits(asm.Im[i]), math.Float64bits(plain.Re[i]), math.Float64bits(plain.Im[i]))
					}
					if asm.Stats != plain.Stats {
						t.Fatalf("n=%d %+v, %s: the twin reports %+v, the Go loop %+v", n, r, l.name, asm.Stats, plain.Stats)
					}
				}
			}
		}
	}
}

// randomRun draws 1-40 terms of a diagonal run in the normal form Prepare
// takes. Every term requires the pinned qubits and a random subset of one
// table's qubits. The other qubits are dealt to the tables, each table
// getting one first, and now and then left to none. Phases are random
// angles, or the exact ±1 and ±i of z, s and sdg.
func randomRun(rng *rand.Rand, n int, pinned uint64, tables int) (qubits [2]uint64, terms []gate.DiagTerm, table []uint8) {
	i := 0
	for _, q := range rng.Perm(n) {
		if pinned>>uint(q)&1 == 1 {
			continue
		}
		t := rng.Intn(tables)
		switch {
		case i < tables:
			t = i
		case rng.Intn(5) == 0:
			continue
		}
		qubits[t] |= 1 << uint(q)
		i++
	}
	exact := [][2]float64{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	for k := 1 + rng.Intn(40); k > 0; k-- {
		t := rng.Intn(tables)
		if qubits[1] == 0 {
			t = 0
		}
		mask := pinned
		for m := qubits[t]; m != 0; m &= m - 1 {
			if rng.Intn(2) == 0 {
				mask |= m & -m
			}
		}
		term := gate.DiagTerm{Mask: mask}
		if rng.Intn(4) == 0 {
			e := exact[rng.Intn(len(exact))]
			term.Re, term.Im = e[0], e[1]
		} else {
			a := (rng.Float64()*2 - 1) * 2 * math.Pi
			term.Re, term.Im = math.Cos(a), math.Sin(a)
		}
		terms = append(terms, term)
		table = append(table, uint8(t))
	}
	return qubits, terms, table
}

// TestAsmDiagRunMatchesGo is the same contract for the diagonal run's
// twins, which gather their factors from the tables by key: random runs
// with one table and two × nothing pinned or the pinned physical qubits
// {q0}, {q1} (which stay on the Go loop), {q2}, {q3}, {q7} (the top of
// the 256-index block), {q2, q5}, {q8} and {q11} (above the block, which
// is then one stretch) × three draws under the identity layout and three
// under a random one × the full
// state, aligned tiles, partitions with Base != 0 and the shares of a
// 3-worker pool (which start mid-block and unaligned), on 3, 6, 9 and 12
// qubits of spiced amplitudes.
func TestAsmDiagRunMatchesGo(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	defer func() { haveAVX2 = true }()
	pool := NewPool(3)
	defer pool.Close()
	rng := rand.New(rand.NewSource(103))

	// wbits is the size of a tile or partition, drawn per case.
	layouts := []struct {
		name  string
		apply func(s *State, d *DiagTables, wbits int)
	}{
		{"full", func(s *State, d *DiagTables, _ int) { s.ApplyRun(d) }},
		{"tiles", func(s *State, d *DiagTables, wbits int) {
			for lo := 0; lo < s.Dim; lo += 1 << wbits {
				a, f := s.ApplyRunTile(d, lo, lo+1<<wbits)
				s.Stats.AddTileWork(1, a, f)
			}
		}},
		{"partitions", func(s *State, d *DiagTables, wbits int) {
			for base := 0; base < s.Dim; base += 1 << wbits {
				pe := &State{N: wbits, Dim: 1 << wbits, Re: s.Re[base : base+1<<wbits], Im: s.Im[base : base+1<<wbits], Base: base, Style: Vectorized}
				pe.ApplyRun(d)
				s.Stats.Add(pe.Stats)
			}
		}},
		{"pool shares", func(s *State, d *DiagTables, _ int) { pool.ApplyRunShared(s, d) }},
	}

	for _, n := range []int{3, 6, 9, 12} {
		for _, at := range [][]int{nil, {0}, {1}, {2}, {3}, {7}, {2, 5}, {8}, {11}} {
			if len(at) > 0 && at[len(at)-1] >= n {
				continue
			}
			for tables := 1; tables <= 2; tables++ {
				for trial := range 6 {
					perm := rng.Perm(n)
					if trial%2 == 0 {
						for q := range perm {
							perm[q] = q
						}
					}
					var pinned uint64
					for _, p := range at {
						pinned |= 1 << uint(slices.Index(perm, p))
					}
					qubits, terms, table := randomRun(rng, n, pinned, tables)
					var d DiagTables
					d.Prepare(len(terms), pinned, qubits, terms, table, perm)
					wbits := 2 + rng.Intn(n-1)
					start := randomState(rng, n, Vectorized)
					spice(rng, start)
					for _, l := range layouts {
						asm, plain := start.Clone(), start.Clone()
						haveAVX2 = true
						l.apply(asm, &d, wbits)
						haveAVX2 = false
						l.apply(plain, &d, wbits)
						if i := firstBitDiff(asm, plain); i >= 0 {
							t.Fatalf("n=%d pinned at %v, %d tables %b, layout %v, %s 2^%d: amplitude %d is (%x, %x) from the twin, (%x, %x) from the Go loop",
								n, at, tables, qubits, perm, l.name, wbits, i,
								math.Float64bits(asm.Re[i]), math.Float64bits(asm.Im[i]), math.Float64bits(plain.Re[i]), math.Float64bits(plain.Im[i]))
						}
						if asm.Stats != plain.Stats {
							t.Fatalf("n=%d pinned at %v, %d tables, layout %v, %s: the twin reports %+v, the Go loop %+v", n, at, tables, perm, l.name, asm.Stats, plain.Stats)
						}
					}
				}
			}
		}
	}
}

// lowKinds are the controlled and 2-target kinds, whose operands pin or
// pair the low qubits in every combination a twin's modes take.
var lowKinds = []gate.Kind{
	gate.CX, gate.CY, gate.CZ, gate.CH, gate.CRX, gate.CRY, gate.CRZ, gate.CU1, gate.CU3, gate.CS, gate.CT,
	gate.CCX, gate.CSWAP, gate.C3X, gate.C3SQRTX, gate.C4X, gate.SWAP, gate.RXX, gate.RZZ,
}

// placements calls f with every ordered choice of k distinct qubits of n
// that puts at least one on qubit 0 or 1.
func placements(n, k int, f func(ops []int)) {
	ops := make([]int, 0, k)
	var used uint
	var walk func()
	walk = func() {
		if len(ops) == k {
			if used&3 != 0 {
				f(ops)
			}
			return
		}
		for q := range n {
			if used>>uint(q)&1 == 0 {
				used |= 1 << uint(q)
				ops = append(ops, q)
				walk()
				ops = ops[:len(ops)-1]
				used &^= 1 << uint(q)
			}
		}
	}
	walk()
}

// TestLowPlacementsMatchGo is the contract where the twins shuffle and
// blend: on 5 and 7 qubits, every ordered placement of every controlled
// and 2-target kind's operands with at least one on qubit 0 or 1 — a
// target there (the paired modes), a control or a SWAP/RXX operand there
// (the masked mode) and both bits pinned (the Go loop) — with its angles
// at 0, π and 2π and at random, through the four layouts of
// TestAsmBodiesMatchGo, whose pool shares cut a call's blocks between
// workers, leaves the bits and the work of the Go loop.
func TestLowPlacementsMatchGo(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	pool := NewPool(3)
	defer pool.Close()
	rng := rand.New(rand.NewSource(107))
	layouts := bodyLayouts(pool)
	for _, n := range []int{5, 7} {
		for _, k := range lowKinds {
			angles := [][]float64{nil}
			if np := k.NumParams(); np > 0 {
				angles = nil
				for _, a := range []float64{0, math.Pi, 2 * math.Pi} {
					same := make([]float64, np)
					for i := range same {
						same[i] = a
					}
					angles = append(angles, same)
				}
				angles = append(angles, randAngles(rng, np))
			}
			placements(n, k.NumQubits(), func(ops []int) {
				for _, a := range angles {
					g := gate.New(k, ops, a...)
					start := randomState(rng, n, Vectorized)
					spice(rng, start)
					for _, l := range layouts {
						if err := twinMatchesGo(start, &g, l); err != nil {
							t.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// TestScalarReachesNoTwin: a body hands its visits to its twin only when
// its iter says so (iter.twin; the Pauli rotation asks iter.simd), so
// Scalar never reaches a twin if no Scalar iter says so — over every way
// a gate pins the bits of a window of 2..32 amplitudes, whole and in
// pool shares. A Vectorized iter on an AVX2 CPU takes the body twin
// exactly when the window has a whole block and bits 0 and 1 are not
// both pinned.
func TestScalarReachesNoTwin(t *testing.T) {
	detected := haveAVX2
	defer func() { haveAVX2 = detected }()
	haveAVX2 = true
	s := New(5)
	for w := 1; w <= 5; w++ {
		for fixed := 0; fixed < 1<<w; fixed++ {
			for ones := fixed; ; ones = (ones - 1) & fixed {
				for _, style := range []KernelStyle{Scalar, Vectorized} {
					for parts := 1; parts <= 3; parts++ {
						for part := range parts {
							s.Style = style
							win := s.window(0, 1<<w)
							win.part, win.parts = part, parts
							it := win.iter(ones, fixed&^ones)
							if style == Scalar && (it.simd() || it.twin) {
								t.Fatalf("Scalar window of %d, pins %b=%b: simd %v, twin %v", 1<<w, fixed, ones, it.simd(), it.twin)
							}
							if want := w >= 2 && fixed&3 != 3; style == Vectorized && it.twin != want {
								t.Fatalf("Vectorized window of %d, pins %b=%b: twin %v, want %v", 1<<w, fixed, ones, it.twin, want)
							}
						}
					}
				}
				if ones == 0 {
					break
				}
			}
		}
	}
}

// FuzzBodies asserts the twin == Go loop contract on placements the
// fixed tests do not enumerate: a byte seed picks the register (5-9
// qubits), the kind, each operand (biased to qubits 0-2), the angles
// (0, ±π/2, π, 2π or random), the layout, and the amplitudes.
func FuzzBodies(f *testing.F) {
	if !haveAVX2 {
		f.Skip("no AVX2 on this CPU")
	}
	pool := NewPool(3)
	f.Cleanup(pool.Close)
	layouts := bodyLayouts(pool)
	kinds := windowKinds()
	f.Add([]byte{0, 1, 0, 2, 0, 0, 0, 0})
	f.Add([]byte{2, 7, 4, 1, 9, 3, 2, 5, 1})
	f.Add([]byte{4, 30, 0, 2, 4, 6, 8, 1, 3, 7})
	f.Fuzz(func(t *testing.T, seed []byte) {
		at := 0
		next := func() int {
			if at >= len(seed) {
				return 0
			}
			at++
			return int(seed[at-1])
		}
		n := 5 + next()%5
		k := kinds[next()%len(kinds)]
		if k.NumQubits() > n {
			return
		}
		var ops []int
		var used uint
		for len(ops) < k.NumQubits() {
			b := next()
			q := b >> 1 % n
			if b&1 == 0 {
				q = b >> 1 % 3
			}
			for used>>uint(q)&1 == 1 {
				q = (q + 1) % n
			}
			used |= 1 << uint(q)
			ops = append(ops, q)
		}
		rng := rand.New(rand.NewSource(int64(next())<<8 | int64(next())))
		angles := make([]float64, k.NumParams())
		for i := range angles {
			special := []float64{0, math.Pi / 2, -math.Pi / 2, math.Pi, 2 * math.Pi}
			if b := next(); b < len(special) {
				angles[i] = special[b]
			} else {
				angles[i] = randAngles(rng, 1)[0]
			}
		}
		g := gate.New(k, ops, angles...)
		l := layouts[next()%len(layouts)]
		start := randomState(rng, n, Vectorized)
		spice(rng, start)
		if err := twinMatchesGo(start, &g, l); err != nil {
			t.Fatal(err)
		}
	})
}
