package gate

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// denseFromClass rebuilds the full unitary on the gate's operands from its
// classification (controls embed the target unitary), giving an
// independent check that Classify factors every kind correctly.
func denseFromClass(g Gate) Matrix {
	cl := Classify(&g)
	nq := int(g.NQ)
	// Local positions of targets within the operand list.
	posOf := map[int]int{}
	for j := 0; j < nq; j++ {
		posOf[int(g.Qubits[j])] = j
	}
	dim := 1 << uint(nq)
	m := Identity(dim)
	var cmask int
	for _, c := range cl.Ctrls {
		cmask |= 1 << uint(posOf[c])
	}
	k := len(cl.Targets)
	sub := 1 << uint(k)
	for i := 0; i < dim; i++ {
		if i&cmask != cmask {
			continue
		}
		a := 0
		for j, t := range cl.Targets {
			if i>>uint(posOf[t])&1 == 1 {
				a |= 1 << uint(j)
			}
		}
		for b := 0; b < sub; b++ {
			col := i
			for j, t := range cl.Targets {
				bit := 1 << uint(posOf[t])
				if b>>uint(j)&1 == 1 {
					col |= bit
				} else {
					col &^= bit
				}
			}
			m.Set(i, col, cl.U.At(a, b))
		}
	}
	return m
}

func TestClassifyReconstructsEveryUnitary(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := Kind(0); k < numKinds; k++ {
		if !k.Unitary() || k == BARRIER || k == GPHASE {
			continue
		}
		for trial := 0; trial < 3; trial++ {
			g := sampleGate(rng, k)
			want := Unitary(g)
			got := denseFromClass(g)
			if !got.EqualUpTo(want, 1e-10) {
				t.Fatalf("kind %s: classification does not reconstruct the unitary", k)
			}
		}
	}
}

func TestClassifyDiagFlags(t *testing.T) {
	diag := []Kind{Z, S, SDG, T, TDG, U1, RZ, CZ, CU1, CRZ, RZZ, CS, CSDG, CT, CTDG, ID}
	nonDiag := []Kind{X, Y, H, RX, RY, U2, U3, CX, CY, CH, SWAP, CCX, CSWAP, RXX,
		RCCX, RC3X, C3X, C3SQRTX, C4X, SX, SXDG, CRX, CRY, CU3}
	rng := rand.New(rand.NewSource(2))
	for _, k := range diag {
		g := sampleGate(rng, k)
		if cl := Classify(&g); !cl.Diag {
			t.Errorf("kind %s should classify diagonal", k)
		}
	}
	for _, k := range nonDiag {
		g := sampleGate(rng, k)
		if cl := Classify(&g); cl.Diag {
			t.Errorf("kind %s should NOT classify diagonal", k)
		}
	}
}

func TestClassifyControlTargetSplit(t *testing.T) {
	g := NewCCX(5, 1, 3)
	cl := Classify(&g)
	if len(cl.Ctrls) != 2 || cl.Ctrls[0] != 5 || cl.Ctrls[1] != 1 {
		t.Fatalf("ctrls: %v", cl.Ctrls)
	}
	if len(cl.Targets) != 1 || cl.Targets[0] != 3 {
		t.Fatalf("targets: %v", cl.Targets)
	}
	if cl.U.N != 2 {
		t.Fatalf("base unitary size %d", cl.U.N)
	}
	sw := NewCSWAP(0, 2, 4)
	cls := Classify(&sw)
	if len(cls.Targets) != 2 || cls.U.N != 4 {
		t.Fatalf("cswap classification: %v %d", cls.Targets, cls.U.N)
	}
}

// TestTargetUnitaryIntoMatchesClassify: the in-place matrix is, bit for
// bit, the one Classify allocates — for every unitary kind, generic and
// degenerate angles alike — and the kinds with parameters allocate
// nothing.
func TestTargetUnitaryIntoMatchesClassify(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	angles := []float64{0, math.Pi, 2 * math.Pi, -math.Pi / 2}
	for k := Kind(0); k < MEASURE; k++ {
		if k == GPHASE {
			continue
		}
		qs := rng.Perm(6)[:k.NumQubits()]
		for trial := 0; trial < 8; trial++ {
			ps := make([]float64, k.NumParams())
			for i := range ps {
				ps[i] = (rng.Float64()*2 - 1) * 2 * math.Pi
				if trial >= 4 {
					ps[i] = angles[(trial+i)%len(angles)]
				}
			}
			g := New(k, qs, ps...)
			want := Classify(&g).U
			buf := make([]complex128, 256)
			if n := TargetUnitaryInto(&g, buf); n != want.N {
				t.Fatalf("%s: dimension %d, Classify has %d", g, n, want.N)
			}
			for i, w := range want.Data {
				if math.Float64bits(real(buf[i])) != math.Float64bits(real(w)) ||
					math.Float64bits(imag(buf[i])) != math.Float64bits(imag(w)) {
					t.Fatalf("%s: element %d is %v, Classify has %v", g, i, buf[i], w)
				}
			}
			if k.NumParams() > 0 {
				if a := testing.AllocsPerRun(10, func() { TargetUnitaryInto(&g, buf) }); a != 0 {
					t.Fatalf("%s: %v allocations per call", g, a)
				}
			}
		}
	}
}

// TestDiagTermsReproduceUnitary: for every statically diagonal unitary
// kind, gphase included, the product of the gate's normal-form terms over
// a basis state is that state's diagonal element.
func TestDiagTermsReproduceUnitary(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if !k.Diagonal() || !k.Unitary() {
			continue
		}
		qubits := []int{2, 0, 3}[:k.NumQubits()]
		params := []float64{0.7, -1.3, 2.1}[:k.NumParams()]
		g := New(k, qubits, params...)
		terms := g.AppendDiagTerms(nil)
		if len(terms) > MaxDiagTerms {
			t.Fatalf("%s: %d terms", k, len(terms))
		}
		u := Unitary(g)
		for sub := 0; sub < u.N; sub++ {
			var x uint64 // the basis state whose operand bits spell sub
			for j, q := range qubits {
				x |= uint64(sub>>uint(j)&1) << uint(q)
			}
			f := complex(1, 0)
			for _, term := range terms {
				if x&term.Mask == term.Mask {
					f *= complex(term.Re, term.Im)
				}
			}
			if d := cmplx.Abs(f - u.At(sub, sub)); d > 1e-15 {
				t.Errorf("%s: |%b> gets %v, unitary says %v", g, sub, f, u.At(sub, sub))
			}
		}
	}
}
