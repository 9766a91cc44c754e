package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/gate"
	"svsim/internal/sched"
)

func TestRunShotsUnitaryFastPath(t *testing.T) {
	// Bell pair with trailing measurements: one simulation, many samples.
	c := circuit.New("bell", 2)
	c.H(0).CX(0, 1).MeasureAll()
	counts, err := RunShots(NewSingleDevice(Config{}), c, 20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 2 {
		t.Fatalf("bell outcomes: %v", counts)
	}
	f := float64(counts[0]) / 20000
	if math.Abs(f-0.5) > 0.02 {
		t.Fatalf("P(00) = %g", f)
	}
	if counts[0b01] != 0 || counts[0b10] != 0 {
		t.Fatalf("impossible outcomes: %v", counts)
	}
}

func TestRunShotsNoExplicitMeasurement(t *testing.T) {
	// Without measure ops, every qubit is sampled.
	c := circuit.New("plus", 2)
	c.H(0).H(1)
	counts, err := RunShots(NewSingleDevice(Config{}), c, 40000, 5)
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(0); v < 4; v++ {
		f := float64(counts[v]) / 40000
		if math.Abs(f-0.25) > 0.02 {
			t.Fatalf("outcome %b frequency %g", v, f)
		}
	}
}

func TestRunShotsMidCircuitMeasurement(t *testing.T) {
	// Mid-circuit measurement with feed-forward requires per-shot runs:
	// measure |+>, then flip qubit 1 iff the result was 1. Outcomes must
	// be perfectly correlated.
	c := circuit.New("ff", 2)
	c.H(0)
	c.Measure(0, 0)
	c.AppendCond(gate.NewX(1), circuit.Condition{Offset: 0, Width: 1, Value: 1})
	c.Measure(1, 1)
	counts, err := RunShots(NewSingleDevice(Config{}), c, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	if counts[0b01] != 0 || counts[0b10] != 0 {
		t.Fatalf("feed-forward broke correlation: %v", counts)
	}
	if counts[0b00] == 0 || counts[0b11] == 0 {
		t.Fatalf("degenerate distribution: %v", counts)
	}
}

func TestRunShotsPartialMeasurement(t *testing.T) {
	// Only qubit 1 is measured into cbit 0; qubit 0 stays unmeasured.
	c := circuit.New("partial", 2)
	c.H(0).X(1)
	c.Measure(1, 0)
	counts, err := RunShots(NewSingleDevice(Config{}), c, 1000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if counts[1] != 1000 {
		t.Fatalf("qubit 1 is |1>: %v", counts)
	}
}

func TestRunShotsOnDistributedBackend(t *testing.T) {
	c := circuit.New("ghz", 6)
	c.H(0)
	for q := 1; q < 6; q++ {
		c.CX(q-1, q)
	}
	c.MeasureAll()
	counts, err := RunShots(NewScaleOut(Config{PEs: 4}), c, 2000, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 2 || counts[0] == 0 || counts[0b111111] == 0 {
		t.Fatalf("GHZ sampling: %v", counts)
	}
}

func TestRunShotsResetForcesPerShot(t *testing.T) {
	c := circuit.New("r", 1)
	c.H(0)
	c.Reset(0)
	c.Measure(0, 0)
	counts, err := RunShots(NewSingleDevice(Config{}), c, 50, 17)
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 50 {
		t.Fatalf("reset shots: %v", counts)
	}
}

// A measure-free program that still runs per shot (a reset) counts each
// shot's basis state, as a trailing-only one does: reset, then H, reads
// |0> and |1> about equally, keyed by the 2-qubit register.
func TestRunShotsMeasureFreePerShotKeysBasisStates(t *testing.T) {
	c := circuit.New("rh", 2)
	c.X(0)
	c.Reset(0)
	c.H(0)
	c.X(1)
	counts, err := RunShots(NewSingleDevice(Config{}), c, 400, 19)
	if err != nil {
		t.Fatal(err)
	}
	if counts[0b10]+counts[0b11] != 400 || counts[0b10] < 140 || counts[0b11] < 140 {
		t.Fatalf("reset then H on q0, X on q1: %v", counts)
	}
	if got := ShotCounts(c, counts); got["10"] != counts[0b10] || got["11"] != counts[0b11] {
		t.Fatalf("keys %v for counts %v", got, counts)
	}
}

// TestRunShotsAcrossBackends pins per-shot re-seeding on every backend:
// a gate after a measurement forces one simulation per shot, and each
// must draw from its own stream — the same one on every backend, so the
// histograms agree shot for shot.
func TestRunShotsAcrossBackends(t *testing.T) {
	c := circuit.New("twocoins", 2)
	c.H(0)
	c.Measure(0, 0)
	c.H(1)
	c.Measure(1, 1)
	want, err := RunShots(NewSingleDevice(Config{}), c, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 4 {
		t.Fatalf("single: two fair coins gave %v", want)
	}
	for _, b := range []Backend{
		&backend{name: "threaded", cfg: Config{PEs: 2}},
		NewScaleUp(Config{PEs: 2}),
		NewScaleOut(Config{PEs: 2}),
	} {
		got, err := RunShots(b, c, 200, 1)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: histogram %v, single gives %v", b.Name(), got, want)
		}
	}
}

// TestShotSeedsDoNotCollide: math/rand keeps only a seed's residue
// modulo 2^31−1 (the first check shows it), so two shots share a stream
// exactly when their seeds share a residue. Over seeds 0–63 × shots
// 0–4095 none do, where seeds one apart once shared all but one shot.
func TestShotSeedsDoNotCollide(t *testing.T) {
	const m = 1<<31 - 1
	if rand.NewSource(5).Int63() != rand.NewSource(5+m).Int63() {
		t.Fatal("math/rand no longer seeds by the residue modulo 2^31-1: this test keys the wrong thing")
	}
	seen := make(map[int64]string, 64*4096)
	for seed := int64(0); seed < 64; seed++ {
		for s := 0; s < 4096; s++ {
			r := shotSeed(seed, s) % m
			if r < 0 {
				r += m
			}
			if r == 0 {
				r = 89482311 // math/rand's stand-in for a zero residue
			}
			who := fmt.Sprintf("seed %d shot %d", seed, s)
			if prev, ok := seen[r]; ok {
				t.Fatalf("%s draws the stream of %s", who, prev)
			}
			seen[r] = who
		}
	}
}

// TestShotCountsGolden pins the per-shot histogram of `h q[0]; measure
// q[0] -> c[0]; if(c==1) x q[1];` over 1,000 shots on seeds 1–3 (cbits
// 00 and 01; the X never reaches a cbit), and requires every backend ×
// sched cell to draw the single device's counts: shot s runs on
// shotSeed(seed, s) whatever runs it.
func TestShotCountsGolden(t *testing.T) {
	c := circuit.New("ff", 2)
	c.H(0)
	c.Measure(0, 0)
	c.NumClbits = 2
	c.AppendCond(gate.NewX(1), circuit.Condition{Offset: 0, Width: 2, Value: 1})
	golden := map[int64]map[uint64]int{
		1: {0: 490, 1: 510},
		2: {0: 492, 1: 508},
		3: {0: 508, 1: 492},
	}
	single := NewSingleDevice(Config{})
	for seed, want := range golden {
		if got, err := RunShots(single, c, 1000, seed); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: counts %v (%v), want %v", seed, got, err, want)
		}
	}
	cells := []struct {
		name  string
		sched sched.Policy
	}{{"threaded", ""}, {"scale-up", ""},
		{"scale-out", sched.Naive}, {"scale-out", sched.Lazy}, {"mpi", sched.Naive}, {"mpi", sched.Lazy}}
	const shots = 100
	for seed := int64(1); seed <= 3; seed++ {
		want, err := RunShots(single, c, shots, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, cell := range cells {
			got, err := RunShots(&backend{name: cell.name, cfg: Config{PEs: 2, Sched: cell.sched}}, c, shots, seed)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d %s sched=%q: counts %v (%v), single gives %v", seed, cell.name, cell.sched, got, err, want)
			}
		}
	}
}
