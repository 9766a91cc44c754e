package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/gate"
	"svsim/internal/statevec"
)

func unitaryKinds() []gate.Kind {
	var ks []gate.Kind
	for i := 0; i < gate.NumKinds; i++ {
		k := gate.Kind(i)
		if k.Unitary() && k != gate.BARRIER && k != gate.GPHASE {
			ks = append(ks, k)
		}
	}
	return ks
}

func randomCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New("random", n)
	kinds := unitaryKinds()
	for i := 0; i < gates; i++ {
		k := kinds[rng.Intn(len(kinds))]
		perm := rng.Perm(n)
		qs := perm[:k.NumQubits()]
		ps := make([]float64, k.NumParams())
		for j := range ps {
			ps[j] = (rng.Float64()*2 - 1) * 2 * math.Pi
		}
		c.Append(gate.New(k, qs, ps...))
	}
	return c
}

func TestBackendsAgreeOnRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 7
	for trial := 0; trial < 3; trial++ {
		c := randomCircuit(rng, n, 120)
		ref, err := NewSingleDevice(Config{Seed: 5}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, pes := range []int{1, 2, 4, 8} {
			for _, coal := range []bool{false, true} {
				var b Backend
				if coal {
					b = NewScaleOut(Config{Seed: 5, PEs: pes, Coalesced: true})
				} else {
					b = NewScaleUp(Config{Seed: 5, PEs: pes})
				}
				got, err := b.Run(c)
				if err != nil {
					t.Fatal(err)
				}
				if d := got.State.MaxAbsDiff(ref.State); d != 0 {
					t.Fatalf("trial %d backend %s PEs=%d coalesced=%v deviates by %g",
						trial, b.Name(), pes, coal, d)
				}
			}
		}
	}
}

func TestBackendsAgreeWithMeasurement(t *testing.T) {
	// Bell pair plus conditional correction: all backends with the same
	// seed must produce identical classical bits and states.
	c := circuit.New("teleport-ish", 3)
	c.H(0).CX(0, 1).CX(1, 2).H(1)
	c.Measure(1, 0)
	c.Measure(0, 1)
	c.AppendCond(gate.NewX(2), circuit.Condition{Offset: 0, Width: 1, Value: 1})
	c.AppendCond(gate.NewZ(2), circuit.Condition{Offset: 1, Width: 1, Value: 1})

	for seed := int64(0); seed < 10; seed++ {
		ref, err := NewSingleDevice(Config{Seed: seed}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, pes := range []int{2, 4} {
			got, err := NewScaleOut(Config{Seed: seed, PEs: pes}).Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cbits != ref.Cbits {
				t.Fatalf("seed %d PEs %d: cbits %b vs %b", seed, pes, got.Cbits, ref.Cbits)
			}
			if d := got.State.MaxAbsDiff(ref.State); d != 0 {
				t.Fatalf("seed %d PEs %d: state deviates by %g", seed, pes, d)
			}
		}
	}
}

func TestResetAcrossBackends(t *testing.T) {
	c := circuit.New("reset", 5)
	c.H(0).H(4).CX(0, 4)
	c.Reset(4)
	c.Reset(0)
	for seed := int64(0); seed < 8; seed++ {
		ref, err := NewSingleDevice(Config{Seed: seed}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewScaleOut(Config{Seed: seed, PEs: 4}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if d := got.State.MaxAbsDiff(ref.State); d != 0 {
			t.Fatalf("seed %d: reset deviates by %g", seed, d)
		}
		if p := got.State.ProbOne(4); p > 1e-12 {
			t.Fatalf("qubit 4 not reset: %g", p)
		}
	}
}

func TestMeasurementStatisticsDistributed(t *testing.T) {
	// P(1) = sin^2(0.6) for RY(1.2); check frequency over seeds on the
	// distributed backend.
	c := circuit.New("stat", 4)
	c.RY(1.2, 3)
	c.Measure(3, 0)
	want := math.Sin(0.6) * math.Sin(0.6)
	ones := 0
	trials := 3000
	for seed := 0; seed < trials; seed++ {
		res, err := NewScaleOut(Config{Seed: int64(seed), PEs: 4}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		ones += int(res.Cbits & 1)
	}
	got := float64(ones) / float64(trials)
	if math.Abs(got-want) > 0.03 {
		t.Fatalf("distributed measurement frequency %g, want %g", got, want)
	}
}

func TestGHZAcrossManyPEs(t *testing.T) {
	n := 10
	c := circuit.New("ghz", n)
	c.H(0)
	for q := 1; q < n; q++ {
		c.CX(q-1, q)
	}
	for _, pes := range []int{1, 2, 8, 16, 32} {
		res, err := NewScaleOut(Config{PEs: pes}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.State.Probability(0)-0.5) > 1e-12 ||
			math.Abs(res.State.Probability(res.State.Dim-1)-0.5) > 1e-12 {
			t.Fatalf("PEs=%d: GHZ state wrong", pes)
		}
	}
}

func TestLocalCircuitHasNoRemoteTraffic(t *testing.T) {
	// All gates on low qubits: with 4 PEs over 8 qubits, localBits = 6, so
	// gates on qubits 0..5 must produce zero remote messages.
	c := circuit.New("local", 8)
	c.H(0).CX(0, 1).T(2).CCX(0, 1, 2).RZ(0.3, 5).Swap(3, 4)
	res, err := NewScaleOut(Config{PEs: 4}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.RemoteMessages() != 0 {
		t.Fatalf("local circuit produced remote traffic: %+v", res.Comm)
	}
	if res.Comm.Barriers == 0 {
		t.Fatal("expected per-gate barriers")
	}
}

func TestGlobalQubitGateProducesRemoteTraffic(t *testing.T) {
	c := circuit.New("global", 8)
	c.H(7) // qubit 7 is global with 4 PEs (localBits = 6)
	elem, err := NewScaleOut(Config{PEs: 4}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if elem.Comm.RemoteMessages() == 0 {
		t.Fatal("global-qubit gate produced no remote traffic")
	}
	coal, err := NewScaleOut(Config{PEs: 4, Coalesced: true}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	// Coalescing collapses per-element messages into per-partition bulk
	// transfers: far fewer messages, same bytes order.
	if coal.Comm.RemoteMessages() >= elem.Comm.RemoteMessages() {
		t.Fatalf("coalesced messages %d not below element messages %d",
			coal.Comm.RemoteMessages(), elem.Comm.RemoteMessages())
	}
	if d := coal.State.MaxAbsDiff(elem.State); d > 1e-12 {
		t.Fatalf("coalesced and element paths disagree by %g", d)
	}
}

func TestDiagonalGlobalGateIsCommunicationFree(t *testing.T) {
	// The paper's specialized insight: diagonal gates never move data, even
	// on the highest qubit.
	c := circuit.New("diag", 8)
	c.H(0) // entangle something first (local)
	c.RZ(0.7, 7).T(7).CZ(6, 7).U1(0.3, 7).CRZ(0.2, 7, 6)
	res, err := NewScaleOut(Config{PEs: 4}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.RemoteMessages() != 0 {
		t.Fatalf("diagonal gates caused remote traffic: %+v", res.Comm)
	}
	ref, err := NewSingleDevice(Config{}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.State.MaxAbsDiff(ref.State); d > 1e-12 {
		t.Fatalf("diagonal fast path wrong by %g", d)
	}
}

func TestControlGlobalTargetLocal(t *testing.T) {
	// CX with a global control and local target must use the reduced-gate
	// path and stay communication-free.
	c := circuit.New("ctrl-global", 8)
	c.H(7)
	c.CX(7, 0)
	res, err := NewScaleOut(Config{PEs: 4}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewSingleDevice(Config{}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.State.MaxAbsDiff(ref.State); d > 1e-12 {
		t.Fatalf("global-control path wrong by %g", d)
	}
	// The H on qubit 7 is remote, but the CX should add nothing.
	after := res.Comm.RemoteMessages()
	onlyH := circuit.New("h-only", 8)
	onlyH.H(7)
	hres, err := NewScaleOut(Config{PEs: 4}).Run(onlyH)
	if err != nil {
		t.Fatal(err)
	}
	if after != hres.Comm.RemoteMessages() {
		t.Fatalf("CX with global control added remote traffic: %d vs %d",
			after, hres.Comm.RemoteMessages())
	}
}

func TestConfigValidation(t *testing.T) {
	c := circuit.New("tiny", 3)
	c.H(0)
	if _, err := NewScaleOut(Config{PEs: 3}).Run(c); err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Fatalf("PEs=3 error: %v", err)
	}
	if _, err := NewScaleOut(Config{PEs: 16}).Run(c); err == nil || !strings.Contains(err.Error(), "qubits") {
		t.Fatalf("too many PEs error: %v", err)
	}
	empty := &circuit.Circuit{Name: "none"}
	if _, err := NewSingleDevice(Config{}).Run(empty); err == nil {
		t.Fatal("zero-qubit circuit accepted")
	}
}

func TestGPhaseDistributed(t *testing.T) {
	c := circuit.New("gp", 6)
	c.H(0)
	c.Append(gate.NewGPhase(0.9))
	ref, _ := NewSingleDevice(Config{}).Run(c)
	got, err := NewScaleOut(Config{PEs: 4}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.State.MaxAbsDiff(ref.State); d > 1e-12 {
		t.Fatalf("gphase distributed wrong by %g", d)
	}
}

func TestSVStatsAggregation(t *testing.T) {
	c := circuit.New("stats", 6)
	c.H(0).H(5).CX(0, 5).T(3)
	single, _ := NewSingleDevice(Config{}).Run(c)
	dist, err := NewScaleOut(Config{PEs: 4}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if single.SV.Gates != 4 {
		t.Fatalf("single gate count: %+v", single.SV)
	}
	if dist.SV.AmpsTouched == 0 || dist.SV.BytesTouched == 0 {
		t.Fatalf("distributed SV stats empty: %+v", dist.SV)
	}
	if dist.PEs != 4 || single.PEs != 1 {
		t.Fatal("PE counts wrong")
	}
}

func TestVectorizedStyleDistributed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := randomCircuit(rng, 6, 60)
	a, err := NewScaleOut(Config{PEs: 4, Style: statevec.Scalar}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewScaleOut(Config{PEs: 4, Style: statevec.Vectorized}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if d := a.State.MaxAbsDiff(b.State); d != 0 {
		t.Fatalf("styles disagree distributed by %g", d)
	}
}

func TestQFTDistributedMatchesAnalytic(t *testing.T) {
	// QFT of |0...0> is the uniform superposition with zero phases.
	n := 8
	c := circuit.New("qft", n)
	for i := n - 1; i >= 0; i-- {
		c.H(i)
		for j := i - 1; j >= 0; j-- {
			c.CU1(math.Pi/float64(int(1)<<uint(i-j)), j, i)
		}
	}
	res, err := NewScaleOut(Config{PEs: 8, Coalesced: true}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	amp := 1 / math.Sqrt(float64(res.State.Dim))
	for i := 0; i < res.State.Dim; i++ {
		if math.Abs(res.State.Re[i]-amp) > 1e-10 || math.Abs(res.State.Im[i]) > 1e-10 {
			t.Fatalf("QFT|0> amplitude %d = %v", i, res.State.Amplitude(i))
		}
	}
}

func TestFusedBackendMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 3; trial++ {
		c := randomCircuit(rng, 7, 150)
		plain, err := NewSingleDevice(Config{}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		fused, err := NewSingleDevice(Config{Fuse: true}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if d := fused.State.MaxAbsDiff(plain.State); d > 1e-9 {
			t.Fatalf("trial %d: fusion changed the state by %g", trial, d)
		}
		distFused, err := NewScaleOut(Config{Fuse: true, PEs: 4}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if d := distFused.State.MaxAbsDiff(plain.State); d > 1e-9 {
			t.Fatalf("trial %d: distributed fusion deviates by %g", trial, d)
		}
	}
}

func TestFusionReducesWorkOnRotationCircuits(t *testing.T) {
	c := circuit.New("rot", 6)
	for l := 0; l < 8; l++ {
		for q := 0; q < 6; q++ {
			c.RY(0.1, q).RZ(0.2, q).RY(0.3, q).RZ(0.4, q)
		}
		for q := 0; q < 5; q++ {
			c.CX(q, q+1)
		}
	}
	plain, _ := NewSingleDevice(Config{}).Run(c)
	fused, _ := NewSingleDevice(Config{Fuse: true}).Run(c)
	if fused.SV.Gates >= plain.SV.Gates/2 {
		t.Fatalf("fusion did not reduce executed gates: %d vs %d",
			fused.SV.Gates, plain.SV.Gates)
	}
	if d := fused.State.MaxAbsDiff(plain.State); d > 1e-10 {
		t.Fatalf("fused rotation circuit deviates by %g", d)
	}
}

func TestThreadedBackendMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 3; trial++ {
		c := randomCircuit(rng, 7, 150)
		ref, err := NewSingleDevice(Config{Seed: 6}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 7, 16} {
			got, err := NewThreaded(Config{Seed: 6, PEs: workers}).Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if d := got.State.MaxAbsDiff(ref.State); d != 0 {
				t.Fatalf("trial %d workers=%d: threaded deviates by %g", trial, workers, d)
			}
		}
	}
}

func TestThreadedBackendWithFeedback(t *testing.T) {
	// Measurement, reset, conditions on the shared-memory path.
	c := circuit.New("fb", 5)
	c.H(0).CX(0, 4)
	c.Measure(4, 0)
	c.AppendCond(gate.NewX(2), circuit.Condition{Offset: 0, Width: 1, Value: 1})
	c.Reset(0)
	for seed := int64(0); seed < 8; seed++ {
		ref, err := NewSingleDevice(Config{Seed: seed}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewThreaded(Config{Seed: seed, PEs: 4}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cbits != ref.Cbits || got.State.MaxAbsDiff(ref.State) != 0 {
			t.Fatalf("seed %d: threaded feedback mismatch", seed)
		}
	}
}

func TestThreadedGPhaseAndBarrier(t *testing.T) {
	c := circuit.New("gp", 4)
	c.H(0).Barrier()
	c.Append(gate.NewGPhase(0.37))
	c.ID(2)
	ref, _ := NewSingleDevice(Config{}).Run(c)
	got, err := NewThreaded(Config{PEs: 3}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.State.MaxAbsDiff(ref.State); d > 1e-12 {
		t.Fatalf("gphase deviates by %g", d)
	}
}
