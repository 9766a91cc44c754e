package mpibase

import (
	"math"
	"math/rand"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/core"
	"svsim/internal/gate"
	"svsim/internal/sched"
	"svsim/internal/statevec"
)

// randomMeasuredCircuit builds a seeded random circuit with unitaries,
// mid-circuit measurements, resets, and classically conditioned gates —
// the full surface the schedulers must keep equivalent.
func randomMeasuredCircuit(rng *rand.Rand, n, ops int) *circuit.Circuit {
	c := circuit.New("random-measured", n)
	kinds := unitaryKinds()
	cbits := 0
	for i := 0; i < ops; i++ {
		switch r := rng.Float64(); {
		case r < 0.06 && cbits < 8:
			c.Measure(rng.Intn(n), cbits)
			cbits++
		case r < 0.09:
			c.Reset(rng.Intn(n))
		case r < 0.14 && cbits > 0:
			b := rng.Intn(cbits)
			g := gate.NewX(rng.Intn(n))
			c.AppendCond(g, circuit.Condition{Offset: b, Width: 1, Value: uint64(rng.Intn(2))})
		default:
			k := kinds[rng.Intn(len(kinds))]
			perm := rng.Perm(n)
			ps := make([]float64, k.NumParams())
			for j := range ps {
				ps[j] = (rng.Float64()*2 - 1) * 2 * math.Pi
			}
			c.Append(gate.New(k, perm[:k.NumQubits()], ps...))
		}
	}
	return c
}

// TestSchedulesEquivalentAcrossBackends is the cross-backend equivalence
// property: seeded random circuits run under naive vs lazy scheduling on
// the single, scale-up, scale-out, and mpibase backends must produce the
// same amplitudes and, seed for seed, the same measurement outcomes
// (hence identical measurement distributions). The sweep runs with
// fusion off and on — through the shared compile pipeline -fuse behaves
// identically on every backend, so a fused reference must be reproduced
// by every fused variant.
func TestSchedulesEquivalentAcrossBackends(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 3; trial++ {
		c := randomMeasuredCircuit(rng, 8, 80)
		for _, fuse := range []bool{false, true} {
			for seed := int64(0); seed < 4; seed++ {
				ref, err := core.NewSingleDevice(core.Config{Seed: seed, Fuse: fuse}).Run(c)
				if err != nil {
					t.Fatal(err)
				}
				type variant struct {
					name string
					run  func() (*statevec.State, uint64, error)
				}
				coreVariant := func(cfg core.Config, coal bool) func() (*statevec.State, uint64, error) {
					return func() (*statevec.State, uint64, error) {
						var b core.Backend
						if coal {
							b = core.NewScaleOut(cfg)
						} else {
							b = core.NewScaleUp(cfg)
						}
						r, err := b.Run(c)
						if err != nil {
							return nil, 0, err
						}
						return r.State, r.Cbits, nil
					}
				}
				variants := []variant{
					{"scale-up/naive", coreVariant(core.Config{Seed: seed, PEs: 4, Fuse: fuse}, false)},
					{"scale-up/lazy", coreVariant(core.Config{Seed: seed, PEs: 4, Fuse: fuse, Sched: sched.Lazy}, false)},
					{"scale-out/naive", coreVariant(core.Config{Seed: seed, PEs: 4, Fuse: fuse, Coalesced: true}, true)},
					{"scale-out/lazy", coreVariant(core.Config{Seed: seed, PEs: 4, Fuse: fuse, Sched: sched.Lazy}, true)},
					{"mpibase/naive", func() (*statevec.State, uint64, error) {
						r, err := mpi(core.Config{Seed: seed, PEs: 4, Fuse: fuse}, c)
						if err != nil {
							return nil, 0, err
						}
						return r.State, r.Cbits, nil
					}},
					{"mpibase/lazy-remap", func() (*statevec.State, uint64, error) {
						r, err := remap(core.Config{Seed: seed, PEs: 4, Fuse: fuse}, c)
						if err != nil {
							return nil, 0, err
						}
						return r.State, r.Cbits, nil
					}},
				}
				for _, v := range variants {
					st, cb, err := v.run()
					if err != nil {
						t.Fatalf("trial %d seed %d fuse=%v %s: %v", trial, seed, fuse, v.name, err)
					}
					if cb != ref.Cbits {
						t.Fatalf("trial %d seed %d fuse=%v %s: cbits %b, want %b", trial, seed, fuse, v.name, cb, ref.Cbits)
					}
					if d := st.MaxAbsDiff(ref.State); d > 1e-9 {
						t.Fatalf("trial %d seed %d fuse=%v %s: state deviates by %g", trial, seed, fuse, v.name, d)
					}
				}
			}
		}
	}
}

// TestSchedMeasurementDistribution checks the frequency of outcomes on a
// biased qubit agrees between naive and lazy schedules over many seeds.
func TestSchedMeasurementDistribution(t *testing.T) {
	c := circuit.New("stat", 8)
	c.RY(1.2, 7) // P(1) = sin^2(0.6), qubit 7 is global at 4 PEs
	c.Measure(7, 0)
	want := math.Sin(0.6) * math.Sin(0.6)
	trials := 800
	onesNaive, onesLazy := 0, 0
	for seed := 0; seed < trials; seed++ {
		rn, err := core.NewScaleOut(core.Config{Seed: int64(seed), PEs: 4}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		rl, err := core.NewScaleOut(core.Config{Seed: int64(seed), PEs: 4, Sched: sched.Lazy}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if rn.Cbits != rl.Cbits {
			t.Fatalf("seed %d: schedules drew different outcomes", seed)
		}
		onesNaive += int(rn.Cbits & 1)
		onesLazy += int(rl.Cbits & 1)
	}
	if onesNaive != onesLazy {
		t.Fatalf("outcome counts differ: %d vs %d", onesNaive, onesLazy)
	}
	got := float64(onesLazy) / float64(trials)
	if math.Abs(got-want) > 0.05 {
		t.Fatalf("lazy measurement frequency %g, want %g", got, want)
	}
}
