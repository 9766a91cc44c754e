package ham

import (
	"math/bits"
	"math/rand"

	"svsim/internal/circuit"
	"svsim/internal/gate"
	"svsim/internal/statevec"
)

// A shot estimate of <H>, the route a device takes: for each qubit-wise
// commuting group, rotate a clone to the shared measurement basis, draw
// shots and average the eigenvalues. It reads the state through Sample
// and gate kernels, never ExpPauliGroup, so it is an independent check
// of Expectation.

// SampleExpectation estimates <H> using the given number of shots per
// QWC measurement group. The estimator is unbiased with variance O(1/shots).
// Each group's rotations run in ascending qubit order, so a fixed state
// and rng give one estimate.
func (h *Hamiltonian) SampleExpectation(s *statevec.State, shotsPerGroup int, rng *rand.Rand) float64 {
	groups, e := h.GroupCommuting()
	for _, g := range groups {
		work := s.Clone()
		for q, p := range g.Basis {
			switch p {
			case circuit.PauliY:
				sdg := gate.NewSDG(q)
				work.Apply(&sdg)
				fallthrough
			case circuit.PauliX:
				had := gate.NewH(q)
				work.Apply(&had)
			}
		}
		samples := work.Sample(rng, shotsPerGroup)
		for _, t := range g.Terms {
			// In the rotated basis the term reads Z on its whole support.
			// GroupCommuting has validated it.
			x, z, _ := circuit.PauliMasks(t.Paulis)
			var acc float64
			for _, idx := range samples {
				if bits.OnesCount64(uint64(idx)&(x|z))&1 == 0 {
					acc++
				} else {
					acc--
				}
			}
			e += t.Coeff * acc / float64(shotsPerGroup)
		}
	}
	return e
}
