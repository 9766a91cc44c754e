package statevec

import (
	"math/bits"
	"math/cmplx"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"svsim/internal/baseline"
	"svsim/internal/circuit"
	"svsim/internal/gate"
	"svsim/internal/pgas"
)

// windowKinds is every unitary kind, including the operand-less ones.
func windowKinds() []gate.Kind {
	return append(kernelKinds(), gate.GPHASE, gate.BARRIER)
}

// prepCircuit returns a seeded circuit that drives |0...0> to a dense,
// entangled state with no structure a kernel bug could hide behind.
func prepCircuit(rng *rand.Rand, n int) *circuit.Circuit {
	c := circuit.New("prep", n)
	for layer := 0; layer < 2; layer++ {
		for q := 0; q < n; q++ {
			a := randAngles(rng, 3)
			c.Append(gate.NewU3(a[0], a[1], a[2], q))
		}
		for q := 0; q < n; q++ {
			c.Append(gate.NewCX(q, (q+1+layer)%n))
		}
	}
	return c
}

// windowFits reports whether g obeys the window rule for windows of
// 2^wbits amplitudes: every pairing target below wbits (diagonal kinds
// and controls are free).
func windowFits(g *gate.Gate, wbits int) bool {
	if g.Kind.Diagonal() {
		return true
	}
	for _, t := range g.Targets() {
		if int(t) >= wbits {
			return false
		}
	}
	return true
}

// applyParts applies g to the whole state as `parts` separate shares of
// its compressed iteration space (a pool worker's view), in order.
func applyParts(s *State, g *gate.Gate, parts int) (amps, flops int64) {
	for part := 0; part < parts; part++ {
		w := s.window(0, s.Dim)
		w.part, w.parts = part, parts
		a, f := w.apply(g)
		amps += a
		flops += f
	}
	return amps, flops
}

// TestWindowKernels is the one property test of the kernel core: for
// every unitary kind, seeded random operand placements (controls and
// diagonal targets land below and at/above every window boundary), every
// window size 2^1..2^n and both loop shapes,
//
//	(a) applying the gate window by window is bit-identical to one full
//	    Apply and visits the same (amps, flops),
//	(b) splitting the compressed range into 2, 3 and 7 shares is
//	    bit-identical to the unsplit call,
//	(c) the result is within 1e-12 of internal/baseline's generic-matrix
//	    simulator, an implementation that shares no kernel code.
func TestWindowKernels(t *testing.T) {
	const n = 6
	rng := rand.New(rand.NewSource(61))
	prep := prepCircuit(rng, n)
	for _, style := range []KernelStyle{Scalar, Vectorized} {
		start := New(n)
		start.Style = style
		for i := range prep.Ops {
			start.Apply(&prep.Ops[i].G)
		}
		for _, k := range windowKinds() {
			for trial := 0; trial < 6; trial++ {
				g := gate.New(k, sampleOperands(rng, k, n), randAngles(rng, k.NumParams())...)
				want := start.Clone()
				want.Stats = Stats{}
				want.Apply(&g)

				for wbits := 1; wbits <= n; wbits++ {
					if !windowFits(&g, wbits) {
						continue
					}
					got := start.Clone()
					var amps, flops int64
					for lo := 0; lo < got.Dim; lo += 1 << uint(wbits) {
						a, f := got.ApplyTile(&g, lo, lo+1<<uint(wbits))
						amps += a
						flops += f
					}
					if d := got.MaxAbsDiff(want); d != 0 {
						t.Fatalf("style=%d %s: 2^%d windows deviate from Apply by %g", style, g, wbits, d)
					}
					if amps != want.Stats.AmpsTouched || flops != want.Stats.FlopEst {
						t.Fatalf("style=%d %s: 2^%d windows visit (amps=%d flops=%d), Apply (amps=%d flops=%d)",
							style, g, wbits, amps, flops, want.Stats.AmpsTouched, want.Stats.FlopEst)
					}
				}

				for _, parts := range []int{2, 3, 7} {
					got := start.Clone()
					amps, flops := applyParts(got, &g, parts)
					if d := got.MaxAbsDiff(want); d != 0 {
						t.Fatalf("style=%d %s: %d shares deviate from the unsplit call by %g", style, g, parts, d)
					}
					if amps != want.Stats.AmpsTouched || flops != want.Stats.FlopEst {
						t.Fatalf("style=%d %s: %d shares visit (amps=%d flops=%d), unsplit (amps=%d flops=%d)",
							style, g, parts, amps, flops, want.Stats.AmpsTouched, want.Stats.FlopEst)
					}
				}

				ref := circuit.New("ref", n)
				ref.Ops = append(ref.Ops, prep.Ops...)
				if k != gate.BARRIER { // the oracle takes pure evolution only
					ref.Append(g)
				}
				oracle, err := baseline.NewGenericMatrix().Run(ref)
				if err != nil {
					t.Fatal(err)
				}
				for i, a := range oracle {
					if d := cmplx.Abs(a - want.Amplitude(i)); d > 1e-12 {
						t.Fatalf("style=%d %s: amplitude %d deviates from the generic-matrix oracle by %g", style, g, i, d)
					}
				}
			}
		}
	}
}

// TestDiagonalBindingAboveWindow covers the one escape from the window
// rule: a pairing kind whose binding happens to be diagonal may have its
// target above the window (the schedulers classify per binding and leave
// such a gate's target global).
func TestDiagonalBindingAboveWindow(t *testing.T) {
	const n = 5
	rng := rand.New(rand.NewSource(67))
	for _, g := range []gate.Gate{
		gate.NewU3(0, 0.3, 0.9, n-1),
		gate.NewCU3(0, -0.4, 1.1, 1, n-1),
		gate.NewRX(0, n-2),
		gate.NewRXX(0, 0, n-1),
	} {
		got := randomState(rng, n, Vectorized)
		want := got.Clone()
		want.Apply(&g)
		for lo := 0; lo < got.Dim; lo += 4 {
			got.ApplyTile(&g, lo, lo+4)
		}
		if d := got.MaxAbsDiff(want); d != 0 {
			t.Fatalf("%s over 4-amplitude windows deviates by %g", g, d)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a coupling target above the window must panic, not compute garbage")
		}
	}()
	h := gate.NewH(n - 1)
	randomState(rng, n, Scalar).ApplyTile(&h, 0, 4)
}

// TestKernelsDoNotAllocate pins the dispatch cost the small-state
// workloads (thousands of gates on L1-sized states) pay per gate: no
// kernel allocates, whether applied to the whole state or tile by tile,
// on the bodies' Go loops or their AVX2 twins (u2 hands its twin the
// address of a stack array) — the matrix kinds keep their scratch on the
// stack — and u2's other modes (u3 on q0 and q1, cu3 with a control on
// q0), whose twin reads a stack array of broadcast coefficients.
func TestKernelsDoNotAllocate(t *testing.T) {
	const n, wbits = 8, 5
	rng := rand.New(rand.NewSource(71))
	s := randomState(rng, n, Vectorized)
	var gates []gate.Gate
	for _, k := range windowKinds() {
		ops := rng.Perm(wbits)[:k.NumQubits()] // every operand below the tile boundary
		gates = append(gates, gate.New(k, ops, randAngles(rng, k.NumParams())...))
	}
	gates = append(gates, gate.NewU3(0.1, 0.2, 0.3, 0), gate.NewU3(0.1, 0.2, 0.3, 1), gate.New(gate.CU3, []int{0, 4}, 0.1, 0.2, 0.3))
	for _, g := range gates {
		k := g.Kind
		tiled := func() {
			for lo := 0; lo < s.Dim; lo += 1 << wbits {
				s.ApplyTile(&g, lo, lo+1<<wbits)
			}
		}
		forEachBodyPath(func(path string) {
			if a := testing.AllocsPerRun(10, func() { s.Apply(&g) }); a != 0 {
				t.Errorf("Apply(%s), %s bodies: %g allocations per gate, want 0", k, path, a)
			}
			if a := testing.AllocsPerRun(10, tiled); a != 0 {
				t.Errorf("ApplyTile(%s) over %d tiles, %s bodies: %g allocations per gate, want 0", k, s.Dim>>wbits, path, a)
			}
		})
	}

	// The diagonal-run kernel: a CU1 ladder on qubit 7 plus a CZ, split
	// over two tables by hand, under a shuffled layout and the identity
	// (qubit 7 pinned at the top of the 256-index block: the twins take
	// the stretches below it). Tables and key arrays live in the
	// DiagTables and are sized by the first Prepare, so preparing and
	// applying the run again allocates nothing.
	var terms []gate.DiagTerm
	for _, g := range []gate.Gate{gate.NewCU1(0.3, 0, 7), gate.NewCU1(0.7, 3, 7), gate.NewCZ(5, 7), gate.NewCU1(-1.1, 6, 7)} {
		terms = g.AppendDiagTerms(terms)
	}
	var d DiagTables
	for _, perm := range [][]int{rng.Perm(n), {0, 1, 2, 3, 4, 5, 6, 7}} {
		run := func() {
			d.Prepare(4, 1<<7, [2]uint64{1<<0 | 1<<3, 1<<5 | 1<<6}, terms, []uint8{0, 0, 1, 1}, perm)
			s.ApplyRun(&d)
			for lo := 0; lo < s.Dim; lo += 1 << wbits {
				s.ApplyRunTile(&d, lo, lo+1<<wbits)
			}
		}
		forEachBodyPath(func(path string) {
			run()
			if a := testing.AllocsPerRun(10, run); a != 0 {
				t.Errorf("diagonal run, layout %v, %s path: %g allocations per prepare + apply + tiled apply, want 0", perm, path, a)
			}
		})
	}

	// The Pauli-rotation kernel keeps no state between calls: a pairing
	// string and an all-Z one.
	for _, rot := range []PauliRot{{X: 0b10010110, Z: 0b01010011, Theta: 0.7, Gates: 9}, {Z: 0b11000101, Theta: -1.3, Gates: 5}} {
		forEachBodyPath(func(path string) {
			if a := testing.AllocsPerRun(10, func() { s.ApplyPauliRot(&rot) }); a != 0 {
				t.Errorf("ApplyPauliRot(x=%b z=%b), %s body: %g allocations per pass, want 0", rot.X, rot.Z, path, a)
			}
		})
	}
}

// TestDiagRunTableReadsAreChecked truncates a prepared table by its last
// entry, the one keyed by all of its qubits: applying the run must stop
// on Go's bounds check on either path, never read past the table. The
// twins index the tables unchecked, so DiagTables.block checks the
// largest key a block can form before it hands the block over. Qubit 7
// is pinned inside the block (the stretches below it) and, swapped with
// qubit 8, above it (the block as one stretch).
func TestDiagRunTableReadsAreChecked(t *testing.T) {
	const n = 9
	rng := rand.New(rand.NewSource(79))
	var terms []gate.DiagTerm
	for _, g := range []gate.Gate{gate.NewCU1(0.3, 0, 7), gate.NewCU1(0.7, 3, 7), gate.NewCZ(5, 7), gate.NewCU1(-1.1, 6, 7)} {
		terms = g.AppendDiagTerms(terms)
	}
	for _, perm := range [][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8}, {0, 1, 2, 3, 4, 5, 6, 8, 7}} {
		for short := range 2 {
			forEachBodyPath(func(path string) {
				var d DiagTables
				d.Prepare(4, 1<<7, [2]uint64{1<<0 | 1<<3, 1<<5 | 1<<6}, terms, []uint8{0, 0, 1, 1}, perm)
				d.tab[short] = d.tab[short][:len(d.tab[short])-1]
				s := randomState(rng, n, Vectorized)
				defer func() {
					if err, ok := recover().(runtime.Error); !ok || !strings.Contains(err.Error(), "index out of range") {
						t.Errorf("layout %v, table %d one entry short, %s path: want an index-out-of-range panic, got %v", perm, short, path, err)
					}
				}()
				s.ApplyRun(&d)
			})
		}
	}
}

// TestPartitionWindow checks the State.Base contract the distributed
// executors rely on: a state wrapping partition r of a larger register
// applies a gate with global controls and diagonal targets exactly as
// the whole register would.
func TestPartitionWindow(t *testing.T) {
	const n, localBits = 6, 4
	rng := rand.New(rand.NewSource(73))
	whole := randomState(rng, n, Vectorized)
	parts := whole.Clone()
	gs := []gate.Gate{
		gate.NewCX(5, 2), gate.NewCCX(4, 1, 3), gate.NewCU1(0.7, 2, 5), gate.NewRZ(1.3, 4),
		gate.NewRZZ(0.4, 5, 0), gate.NewCZ(4, 5), gate.NewT(5), gate.NewGPhase(0.2), gate.NewCSWAP(5, 0, 3),
	}
	S := 1 << localBits
	for i := range gs {
		whole.Apply(&gs[i])
		for r := 0; r < parts.Dim/S; r++ {
			pe := &State{N: localBits, Dim: S, Re: parts.Re[r*S : (r+1)*S], Im: parts.Im[r*S : (r+1)*S], Base: r * S, Style: Vectorized}
			pe.Apply(&gs[i])
		}
		if d := parts.MaxAbsDiff(whole); d != 0 {
			t.Fatalf("%s applied partition by partition deviates by %g", gs[i], d)
		}
	}
}

// TestStatsTileAccounting checks the Stats helpers used by the tiled
// executors: AddTileWork charges gates/amps/flops without memory
// traffic, AddSweep charges one homogeneous pass, Add merges Sweeps.
func TestStatsTileAccounting(t *testing.T) {
	var s Stats
	s.AddTileWork(5, 100, 700)
	if s.Gates != 5 || s.AmpsTouched != 100 || s.FlopEst != 700 {
		t.Fatalf("AddTileWork: %+v", s)
	}
	if s.BytesTouched != 0 || s.Sweeps != 0 {
		t.Fatalf("AddTileWork must not charge bytes or sweeps: %+v", s)
	}
	s.AddSweep(1 << 10)
	if s.Sweeps != 1 || s.BytesTouched != 1<<10*16 {
		t.Fatalf("AddSweep: %+v", s)
	}
	var o Stats
	o.Add(s)
	if o.Sweeps != 1 || o.BytesTouched != s.BytesTouched || o.Gates != 5 {
		t.Fatalf("Add must merge tile counters: %+v", o)
	}
}

// TestWindowProbOneAndProject cuts random states into 1, 2, 4 ... 64
// windows: the windows' ProbOne shares, combined by the fleet's
// all-reduce, equal the full state's probability bit for bit whatever the
// number of windows (each share is a subtree of the one summation tree),
// and projecting every window with that p1 reproduces the projected full
// state exactly — for qubits inside and above the windows.
func TestWindowProbOneAndProject(t *testing.T) {
	const n = 7
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 4; trial++ {
		full := randomState(rng, n, Vectorized)
		for parts := 1; parts <= 64; parts *= 2 {
			size := full.Dim / parts
			wbits := bits.Len(uint(size)) - 1
			for q := 0; q < n; q++ {
				for outcome := 0; outcome < 2; outcome++ {
					ref := full.Clone()
					p1 := ref.ProbOne(q)
					wins := make([]*State, parts)
					for w := range wins {
						wins[w] = &State{
							N: wbits, Dim: size, Base: w * size,
							Re: append([]float64(nil), full.Re[w*size:(w+1)*size]...),
							Im: append([]float64(nil), full.Im[w*size:(w+1)*size]...),
						}
					}
					pgas.NewComm(parts).Run(func(pe *pgas.PE) {
						if sum := pe.AllReduceSum(wins[pe.Rank].ProbOne(q)); sum != p1 {
							t.Errorf("parts=%d q=%d: window shares reduce to %v on rank %d, full state says %v", parts, q, sum, pe.Rank, p1)
						}
					})
					ref.Project(q, outcome, p1)
					for w, win := range wins {
						win.Project(q, outcome, p1)
						for i := 0; i < size; i++ {
							if win.Re[i] != ref.Re[w*size+i] || win.Im[i] != ref.Im[w*size+i] {
								t.Fatalf("parts=%d q=%d outcome=%d: window %d differs from the projected full state at %d",
									parts, q, outcome, w, i)
							}
						}
					}
				}
			}
		}
	}
}
