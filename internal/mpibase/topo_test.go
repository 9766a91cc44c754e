package mpibase

import (
	"math/rand"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/core"
	"svsim/internal/sched"
)

// TestRemapTopologyEquivalence runs the message-passing remap baseline
// with and without a node topology: the state and classical bits must
// match bit-for-bit (the topology only reorders commuting pairwise
// exchanges and elides provably data-free initial remaps), the locality
// split must account for every exchanged byte, and initial remaps must
// fold.
func TestRemapTopologyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 3; trial++ {
		c := randomMeasuredCircuit(rng, 8, 80)
		for _, tc := range []struct{ ranks, ppn int }{{8, 8}, {8, 4}, {8, 2}, {8, 1}, {16, 4}} {
			flat, err := remap(core.Config{Seed: 5, PEs: tc.ranks}, c)
			if err != nil {
				t.Fatal(err)
			}
			topo, err := remap(core.Config{
				Seed: 5, PEs: tc.ranks,
				Topology: sched.Topology{PEsPerNode: tc.ppn},
			}, c)
			if err != nil {
				t.Fatal(err)
			}
			if d := topo.State.MaxAbsDiff(flat.State); d != 0 {
				t.Fatalf("trial %d %dx%d: topology run deviates by %g (must be bit-identical)",
					trial, tc.ranks, tc.ppn, d)
			}
			if topo.Cbits != flat.Cbits {
				t.Fatalf("trial %d %dx%d: cbits %b, want %b", trial, tc.ranks, tc.ppn, topo.Cbits, flat.Cbits)
			}
			if flat.IntraBytes != 0 || flat.InterBytes != 0 || flat.Compile.Folded != 0 {
				t.Fatalf("flat run reports topology counters: %+v", flat)
			}
			if topo.Compile.Folded > topo.Compile.Remaps {
				t.Fatalf("trial %d %dx%d: folded %d of %d remaps", trial, tc.ranks, tc.ppn, topo.Compile.Folded, topo.Compile.Remaps)
			}
			if tc.ppn == tc.ranks && topo.InterBytes != 0 {
				t.Fatalf("one node: inter bytes %d, want 0", topo.InterBytes)
			}
			if tc.ppn == 1 && topo.IntraBytes != 0 {
				t.Fatalf("one PE per node: intra bytes %d, want 0", topo.IntraBytes)
			}
			if topo.InterBytes > flat.MPI.MsgBytes || topo.IntraBytes+topo.InterBytes > flat.MPI.MsgBytes {
				t.Fatalf("trial %d %dx%d: split %d+%d exceeds flat volume %d",
					trial, tc.ranks, tc.ppn, topo.IntraBytes, topo.InterBytes, flat.MPI.MsgBytes)
			}
		}
	}
}

// TestRemapTopologyReducesInterBytes pins the headline effect on the
// baseline too: ordering intra-node swaps first plus folding the
// initial remap strictly reduces cross-node volume versus classifying
// the flat run's traffic after the fact.
func TestRemapTopologyReducesInterBytes(t *testing.T) {
	// Open on the highest qubit so the lazy remap schedule starts with a
	// foldable remap, then keep demanding locality so later remaps stay.
	c := circuit.New("globalfirst", 9)
	c.H(8)
	for q := 0; q < 9; q++ {
		c.H(q)
		c.T(q)
	}
	for q := 0; q < 8; q++ {
		c.CX(q, q+1)
	}
	c.H(8)
	topoCfg := sched.Topology{PEsPerNode: 4}
	flat, err := remap(core.Config{Seed: 3, PEs: 8}, c)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := remap(core.Config{Seed: 3, PEs: 8, Topology: topoCfg}, c)
	if err != nil {
		t.Fatal(err)
	}
	if d := topo.State.MaxAbsDiff(flat.State); d != 0 {
		t.Fatalf("topology run deviates by %g", d)
	}
	if topo.Compile.Folded == 0 {
		t.Fatal("expected the initial remap to fold")
	}
	// Folding elides whole exchanges, so total two-sided volume strictly
	// drops relative to the flat run.
	if got, was := topo.MPI.MsgBytes, flat.MPI.MsgBytes; got >= was {
		t.Fatalf("topology run moved %d bytes, flat moved %d; folding should reduce it", got, was)
	}
}
