package statevec

import (
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

// TestAsmBodiesMatchGo is the contract of run_amd64.s: an AVX2 twin
// leaves the bits its body's Go loop leaves, and reports the same work.
// Every unitary kind (each body bare and under controls) × the target on
// every qubit × the other operands below and above it × the four ways a
// body is reached — the full state, aligned tiles, partitions of a larger
// register (Base != 0), and the shares of a 3-worker pool, which cut runs
// mid-way so the twins start unaligned and leave 1-3 amplitude remainders
// to the Go loop — on 3, 6 and 12 qubits.
func TestAsmBodiesMatchGo(t *testing.T) {
	if !haveAVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	defer func() { haveAVX2 = true }()
	pool := NewPool(3)
	defer pool.Close()
	rng := rand.New(rand.NewSource(97))

	// A window of 2^wbits amplitudes holds g's pairing targets; at least 8
	// amplitudes, so a tile has runs the twins take.
	windowBits := func(g *gate.Gate, n int) int {
		wbits := 3
		for !windowFits(g, wbits) {
			wbits++
		}
		return min(wbits, n)
	}
	layouts := []struct {
		name  string
		apply func(s *State, g *gate.Gate)
	}{
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
						asm, plain := start.Clone(), start.Clone()
						haveAVX2 = true
						l.apply(asm, &g)
						haveAVX2 = false
						l.apply(plain, &g)
						if i := firstBitDiff(asm, plain); i >= 0 {
							t.Fatalf("n=%d %s, %s: amplitude %d is (%x, %x) from the twin, (%x, %x) from the Go loop", n, g, l.name, i,
								math.Float64bits(asm.Re[i]), math.Float64bits(asm.Im[i]), math.Float64bits(plain.Re[i]), math.Float64bits(plain.Im[i]))
						}
						if asm.Stats != plain.Stats {
							t.Fatalf("n=%d %s, %s: the twin reports %+v, the Go loop %+v", n, g, l.name, asm.Stats, plain.Stats)
						}
					}
				}
			}
		}
	}
	haveAVX2 = true

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
// partitions with Base != 0 and the shares of a 3-worker pool (whose
// first runs start unaligned and stay on the Go loop), on 3, 6 and 12
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
