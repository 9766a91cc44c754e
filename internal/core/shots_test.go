package core

import (
	"math"
	"reflect"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/gate"
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
		NewThreaded(Config{PEs: 2}),
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
