package ckpt

import (
	"fmt"

	"svsim/internal/circuit"
	"svsim/internal/statevec"
)

// Elastic restore planning: a checkpoint taken at fleet size P carries
// everything needed to continue the run on P' PEs — the manifest's
// OpsDone slices the executable stream into done and residual parts,
// and the functions here rebuild the full LOGICAL state vector from the
// physically-sharded (and possibly permuted, for the lazy executor)
// checkpoint so a backend can re-scatter it across any partition
// geometry. The backends own the residual execution; this package owns
// turning shards back into the one representation that is
// geometry-independent.

// WarmStart carries a mid-circuit starting point into a backend run:
// the full logical state plus the classical side needed to continue a
// checkpointed execution (register contents and RNG replay count).
// Backends scatter State across their own partition geometry in place
// of |0...0>.
type WarmStart struct {
	State *statevec.State
	Cbits uint64
	Draws int64
}

// ElasticRestorable reports why a manifest cannot seed an elastic
// restore, or nil when it can. v1 manifests never recorded an op
// count, so their cut point in the executable stream is unknown.
func ElasticRestorable(m *Manifest) error {
	if m.OpsDone < 0 {
		return fmt.Errorf("ckpt: checkpoint in schema %q predates op counting; elastic restore needs a v2 checkpoint", SchemaV1)
	}
	return nil
}

// ReshardLogical rebuilds the full logical state vector from a
// checkpoint directory: every rank's shard is read and un-permuted,
// straight into its place in the logical array, through the manifest's
// logical-to-physical permutation (identity for the naive schedules).
// The result is geometry-free — ready to re-shard onto any PE count.
func ReshardLogical(dir string, m *Manifest) (*WarmStart, error) {
	if err := ElasticRestorable(m); err != nil {
		return nil, err
	}
	n := m.NumQubits
	dim := 1 << uint(n)
	if m.PEs < 1 || dim%m.PEs != 0 {
		return nil, fmt.Errorf("ckpt: manifest PEs %d does not divide dimension %d", m.PEs, dim)
	}
	S := dim / m.PEs
	localBits := n
	for 1<<uint(localBits) > S {
		localBits--
	}
	perm := circuit.Permutation(m.Perm)
	if len(perm) == 0 {
		perm = circuit.IdentityPermutation(n)
	}
	if len(perm) != n {
		return nil, fmt.Errorf("ckpt: manifest permutation has %d entries, want %d", len(perm), n)
	}
	if err := perm.Validate(); err != nil {
		return nil, fmt.Errorf("ckpt: manifest permutation invalid: %w", err)
	}
	// Every physical index lands on exactly one logical index, so the
	// shards overwrite all of New's |0...0>.
	logical := statevec.New(n)
	for r := 0; r < m.PEs; r++ {
		st, err := ReadShard(dir, m.Shards[r], localBits)
		if err != nil {
			return nil, err
		}
		statevec.Unpermute(logical.Re, st.Re, r, perm)
		statevec.Unpermute(logical.Im, st.Im, r, perm)
	}
	return &WarmStart{State: logical, Cbits: m.Cbits, Draws: m.Draws}, nil
}

// ResidualCircuit slices the executable stream at the manifest's op
// cut: the returned circuit holds exactly the ops the checkpointed run
// had not yet executed, under a derived name. exec must be the SAME
// executable stream the checkpointed run compiled (callers verify via
// CircuitHash before slicing).
func ResidualCircuit(exec *circuit.Circuit, m *Manifest) (*circuit.Circuit, error) {
	if err := ElasticRestorable(m); err != nil {
		return nil, err
	}
	if m.OpsDone > len(exec.Ops) {
		return nil, fmt.Errorf("ckpt: checkpoint claims %d ops done, executable stream has %d", m.OpsDone, len(exec.Ops))
	}
	res := &circuit.Circuit{
		Name:      exec.Name + "+elastic",
		NumQubits: exec.NumQubits,
		NumClbits: exec.NumClbits,
		Ops:       append([]circuit.Op(nil), exec.Ops[m.OpsDone:]...),
	}
	return res, nil
}
