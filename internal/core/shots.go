package core

import (
	"fmt"
	"math/rand"
	"slices"

	"svsim/internal/circuit"
	"svsim/internal/gate"
)

// RunShots executes a circuit for repeated sampling — the paper's "need
// to repeatedly sample from the resulting QC state" workload — and is the
// one sampling path: `svsim -shots`, a served job's Shots and the
// examples all come here. A count is keyed by the classical register when
// the circuit measures and by the basis state when it does not
// (ShotCounts spells the keys). For purely unitary circuits (possibly
// with trailing measurements) the state is simulated once and sampled
// `shots` times with rand.NewSource(seed); circuits with mid-circuit
// measurement, reset, or classical control are re-simulated per shot with
// the fresh random stream shotSeed(seed, s), since each shot may collapse
// differently.
func RunShots(b Backend, c *circuit.Circuit, shots int, seed int64) (map[uint64]int, error) {
	counts := make(map[uint64]int, 16)
	if reusableState(c) {
		body, measures := splitTrailingMeasures(c)
		res, err := b.Run(body)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed))
		samples := res.State.Sample(rng, shots)
		for _, idx := range samples {
			counts[classicalValue(idx, measures)]++
		}
		return counts, nil
	}
	if !hasMeasure(c) {
		// Nothing lands in the cbits: a shot reads every qubit at the end.
		m := &circuit.Circuit{Name: c.Name, NumQubits: c.NumQubits, NumClbits: c.NumClbits, Ops: slices.Clone(c.Ops)}
		c = m.MeasureAll()
	}
	cb, _ := b.(*backend)
	for s := 0; s < shots; s++ {
		if cb != nil {
			// A fresh random stream per shot, the configuration kept.
			sb := *cb
			sb.cfg.Seed = shotSeed(seed, s)
			b = &sb
		}
		res, err := b.Run(c)
		if err != nil {
			return nil, err
		}
		counts[res.Cbits]++
	}
	return counts, nil
}

// shotSeed is the seed of shot s of a per-shot run under seed.
// math/rand keeps only a seed's residue modulo 2^31−1, so that residue
// is a shot's stream: shot s gets h + s, h being seed's splitmix64 hash
// reduced modulo 2^31−1. One seed's shots never share a stream, and
// nearby seeds' shots start at unrelated residues instead of one shot
// apart.
func shotSeed(seed int64, s int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z%(1<<31-1)) + int64(s)
}

// ShotCounts keys RunShots' counts for c by bit string: its classical
// register when it measures, else its quantum register, most significant
// bit first.
func ShotCounts(c *circuit.Circuit, counts map[uint64]int) map[string]int {
	bits := c.NumQubits
	if hasMeasure(c) {
		bits = c.NumClbits
	}
	out := make(map[string]int, len(counts))
	for k, n := range counts {
		out[fmt.Sprintf("%0*b", bits, k)] = n
	}
	return out
}

// ShotRuns is how many simulations RunShots makes of c: one when a single
// final state serves every shot, else one per shot.
func ShotRuns(c *circuit.Circuit, shots int) int {
	if reusableState(c) {
		return 1
	}
	return shots
}

// hasMeasure reports whether c has a measurement.
func hasMeasure(c *circuit.Circuit) bool {
	for i := range c.Ops {
		if c.Ops[i].G.Kind == gate.MEASURE {
			return true
		}
	}
	return false
}

// reusableState reports whether one simulation suffices for all shots:
// the circuit must have no conditions and all measurements/resets must be
// trailing measurements (each qubit measured at most once, nothing after).
func reusableState(c *circuit.Circuit) bool {
	seenMeasure := false
	for i := range c.Ops {
		op := &c.Ops[i]
		if op.Cond != nil || op.G.Kind == gate.RESET {
			return false
		}
		if op.G.Kind == gate.MEASURE {
			seenMeasure = true
			continue
		}
		if seenMeasure && op.G.Kind != gate.BARRIER {
			return false // a gate after a measurement
		}
	}
	return true
}

// splitTrailingMeasures separates the unitary body from the trailing
// measurement map (qubit -> classical bit).
func splitTrailingMeasures(c *circuit.Circuit) (*circuit.Circuit, map[int]int) {
	body := &circuit.Circuit{Name: c.Name, NumQubits: c.NumQubits, NumClbits: c.NumClbits}
	measures := make(map[int]int)
	for i := range c.Ops {
		op := c.Ops[i]
		if op.G.Kind == gate.MEASURE {
			measures[int(op.G.Qubits[0])] = int(op.G.Cbit)
			continue
		}
		body.Ops = append(body.Ops, op)
	}
	if len(measures) == 0 {
		// No explicit measurements: sample the full register, bit i -> i.
		for q := 0; q < c.NumQubits; q++ {
			measures[q] = q
		}
	}
	return body, measures
}

// classicalValue maps a sampled basis index through the measurement map.
func classicalValue(idx int, measures map[int]int) uint64 {
	var v uint64
	for q, cb := range measures {
		if idx>>uint(q)&1 == 1 {
			v |= uint64(1) << uint(cb)
		}
	}
	return v
}
