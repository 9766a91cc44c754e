package qir

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"svsim/internal/qasmbench"
	"svsim/internal/sched"
	"svsim/internal/statevec"
)

// uccsdExps applies UCCSD(n)'s Hartree-Fock x gates and one Exp per Pauli
// string of its excitations: X or Y on every excited orbital, a Z chain
// between the two orbitals of a pair, an odd number of Y — two strings
// per single, eight per double (850 at n = 10, 6,400 at n = 16). It
// returns how many.
func uccsdExps(s *Simulator, n int, rng *rand.Rand) (exps int) {
	for q := 0; q < n/2; q++ {
		s.X(q)
	}
	var excitations [][][2]int
	for _, e := range qasmbench.UCCSDSingles(n) {
		excitations = append(excitations, [][2]int{{e[0], e[1]}})
	}
	for _, e := range qasmbench.UCCSDDoubles(n) {
		excitations = append(excitations, [][2]int{{e[0], e[1]}, {e[2], e[3]}})
	}
	for _, pairs := range excitations {
		for ys := uint(0); ys < 1<<(2*len(pairs)); ys++ {
			if bits.OnesCount(ys)%2 == 0 {
				continue
			}
			var paulis []Pauli
			var qubits []int
			end := 0
			for _, p := range pairs {
				for q := p[0]; q <= p[1]; q++ {
					op := PauliZ
					if q == p[0] || q == p[1] {
						op = []Pauli{PauliX, PauliY}[ys>>uint(end)&1]
						end++
					}
					paulis, qubits = append(paulis, op), append(qubits, q)
				}
			}
			s.Exp(paulis, rng.Float64()-0.5, qubits)
			exps++
		}
	}
	return exps
}

// program is one QIR program over every lowering on 6 qubits: a
// UCCSD-style Exp sequence, 2- and 3-control verbs, a ControlledExp, then
// a mid-program M and Reset and a few more gates. It returns the state
// before the M (the unitary prefix), the outcomes and the final state.
func program(s *Simulator, rng *rand.Rand) (prefix *statevec.State, outcomes []int, final *statevec.State) {
	uccsdExps(s, 6, rng)
	s.ControlledX([]int{0, 5}, 2)
	s.ControlledZ([]int{1, 3, 4}, 0)
	s.ControlledH([]int{2, 5}, 3)
	s.ControlledR([]int{0, 2, 4}, PauliY, 0.7, 5)
	s.ControlledAdjointT([]int{3, 1}, 4)
	s.ControlledR([]int{5, 0}, PauliI, 0.4, 1)
	s.ControlledExp([]int{1, 4}, []Pauli{PauliY, PauliZ, PauliX}, 0.3, []int{0, 3, 5})
	s.H(2)
	prefix = s.State().Clone()
	outcomes = append(outcomes, s.M(2))
	s.Reset(5)
	s.ControlledX([]int{2, 0, 4}, 5)
	s.Exp([]Pauli{PauliX, PauliY}, 0.2, []int{5, 1})
	outcomes = append(outcomes, s.M(5), s.M(1))
	return prefix, outcomes, s.State()
}

// TestOneProgramOnEveryBackend: the same program on every backend-table
// row and schedule draws the same outcomes. Its unitary prefix is bit for
// bit the same on every cell that runs the same plan — single and
// threaded, the naive fleets, the lazy fleets — and within 1e-12 of
// single on the fleets, which run a gadget with an X or Y in a rank bit
// as its member gates (TestGadgetFleets). Its final state agrees within
// the rule for measured circuits on a lazy plan, 1e-9.
func TestOneProgramOnEveryBackend(t *testing.T) {
	cells := []struct {
		name, backend, plan string
		pes                 int
		sched               sched.Policy
		coalesced           bool
	}{
		{"single", "single", "one rank", 1, sched.Naive, false},
		{"threaded x2", "threaded", "one rank", 2, sched.Naive, false},
		{"scale-up x4", "scale-up", "naive x4", 4, sched.Naive, false},
		{"scale-out x4", "scale-out", "naive x4", 4, sched.Naive, false},
		{"scale-out x4 coalesced", "scale-out", "naive x4", 4, sched.Naive, true},
		{"mpi x4", "mpi", "naive x4", 4, sched.Naive, false},
		{"scale-out x4 lazy", "scale-out", "lazy x4", 4, sched.Lazy, false},
		{"mpi x4 lazy", "mpi", "lazy x4", 4, sched.Lazy, false},
	}
	drawn := map[string]bool{}
	for seed := int64(0); seed < 6; seed++ {
		var single, final *statevec.State
		var outcomes []int
		prefixes := map[string]*statevec.State{}
		for _, cell := range cells {
			s, err := NewSimulator(cell.backend, cell.pes, 6, seed)
			if err != nil {
				t.Fatal(err)
			}
			s.cfg.Sched, s.cfg.Coalesced = cell.sched, cell.coalesced
			prefix, out, fin := program(s, rand.New(rand.NewSource(seed)))
			if single == nil {
				single, outcomes, final = prefix, out, fin
				drawn[fmt.Sprint(out)] = true
			}
			if fmt.Sprint(out) != fmt.Sprint(outcomes) {
				t.Fatalf("seed %d %s: outcomes %v, single drew %v", seed, cell.name, out, outcomes)
			}
			if ref := prefixes[cell.plan]; ref == nil {
				prefixes[cell.plan] = prefix
			} else if d := prefix.MaxAbsDiff(ref); d != 0 {
				t.Errorf("seed %d %s: unitary prefix deviates from its plan's first cell by %g", seed, cell.name, d)
			}
			if d := prefix.MaxAbsDiff(single); d > 1e-12 {
				t.Errorf("seed %d %s: unitary prefix deviates from single by %g", seed, cell.name, d)
			}
			if d := fin.MaxAbsDiff(final); d > 1e-9 {
				t.Errorf("seed %d %s: final state deviates from single by %g", seed, cell.name, d)
			}
		}
	}
	if len(drawn) < 2 {
		t.Fatalf("every seed drew the same outcomes %v", drawn)
	}
}

// BenchmarkQIRExpSequence: UCCSD(n)'s Exp sequence through the verbs and
// one flush — every window one gadget pass.
func BenchmarkQIRExpSequence(b *testing.B) {
	for _, n := range []int{10, 16} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := newSim(b, n, 1)
				exps := uccsdExps(s, n, rand.New(rand.NewSource(1)))
				// One sweep per window and one per Hartree-Fock x.
				if res := s.flush(); res.Compile.Gadgets != exps || res.SV.Sweeps != int64(exps+n/2) {
					b.Fatalf("%d Exp ran as %d gadgets in %d sweeps", exps, res.Compile.Gadgets, res.SV.Sweeps)
				}
			}
		})
	}
}

// BenchmarkQIRMeasureLoop: 200 M, each after an h and followed by a
// Reset, on 14 qubits — a flush per M; ns/M is the cost of one.
func BenchmarkQIRMeasureLoop(b *testing.B) {
	const n, ms = 14, 200
	for i := 0; i < b.N; i++ {
		s := newSim(b, n, 1)
		for k := 0; k < ms; k++ {
			q := k % n
			s.H(q)
			s.M(q)
			s.Reset(q)
		}
		s.State()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ms), "ns/M")
}
