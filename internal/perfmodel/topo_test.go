package perfmodel

import (
	"testing"

	"svsim/internal/compile"
	"svsim/internal/core"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
)

// TestEstimateTwoLevelIsExact prices a plan's phase lists through the
// one pricing loop and holds the prediction to the PGAS lazy executor's
// measured counters, flat and under every node shape: one-sided
// messages, total volume, the intra-node and inter-node volume, and
// barriers must all match exactly (folded remaps priced at zero, each
// surviving remap priced per phase, two synchronizations per PE per
// phase whatever its scope).
func TestEstimateTwoLevelIsExact(t *testing.T) {
	for _, name := range []string{"qft_n15", "bv_n14"} {
		e, err := qasmbench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := e.Build().StripNonUnitary()
		for _, tc := range []struct{ pes, ppn int }{{8, 0}, {16, 0}, {8, 8}, {8, 4}, {8, 2}, {8, 1}, {16, 4}} {
			topo := sched.Topology{PEsPerNode: tc.ppn}
			res, err := core.NewScaleOut(core.Config{PEs: tc.pes, Sched: sched.Lazy, Topology: topo}).Run(c)
			if err != nil {
				t.Fatal(err)
			}
			cp, _, err := compile.Compile(c, compile.Config{Sched: sched.Lazy, PEs: tc.pes, Topo: topo})
			if err != nil {
				t.Fatal(err)
			}
			est := EstimateCommPlan(cp)
			if tc.ppn > 0 {
				if est = EstimateCommPlanFabric(cp, tc.ppn); !est.Structured {
					t.Fatal("fabric estimate not marked structured")
				}
			}
			for _, f := range []struct {
				what           string
				model, measure int64
			}{
				{"remote messages", est.RemoteMsgs, res.Comm.RemoteMessages()},
				{"remote bytes", est.RemoteBytes, res.Comm.RemoteBytes},
				{"intra bytes", est.IntraNodeBytes, res.IntraBytes},
				{"inter bytes", est.InterNodeBytes, res.InterBytes},
				{"barriers", est.Barriers, res.Comm.Barriers},
			} {
				if f.model != f.measure {
					t.Fatalf("%s @%dx%d: estimated %d %s, measured %d", name, tc.pes, tc.ppn, f.model, f.what, f.measure)
				}
			}
		}
	}
}

// TestEstimateTwoLevelFoldedIsFree prices the same circuit flat and
// topology-annotated: the folded initial remap must cost the topology
// plan nothing, and the two realizations must price their own measured
// runs (the flat estimate stays exact for flat runs).
func TestEstimateTwoLevelFoldedIsFree(t *testing.T) {
	e, err := qasmbench.ByName("qft_n15")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build().StripNonUnitary()
	const pes = 8
	flatCP, _, err := compile.Compile(c, compile.Config{Sched: sched.Lazy, PEs: pes})
	if err != nil {
		t.Fatal(err)
	}
	topoCP, _, err := compile.Compile(c, compile.Config{Sched: sched.Lazy, PEs: pes, Topo: sched.Topology{PEsPerNode: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if topoCP.Plan.Folded == 0 {
		t.Fatal("qft_n15 opens on global qubits; expected a folded initial remap")
	}
	flatEst := EstimateCommPlan(flatCP)
	topoEst := EstimateCommPlan(topoCP)
	// The folded step is free, but surviving remaps split into two phases
	// that re-move some amplitudes, so the totals legitimately differ;
	// both must match their own executor (covered above for topo, and by
	// TestEstimateCommLazyIsExact for flat). Here we pin the barrier
	// accounting: each phase costs the same 2p barrier pair a flat
	// exchange does, and the folded step costs none.
	var phases, foldedPhases int64
	for si, st := range topoCP.Plan.Steps {
		phases += int64(len(topoCP.Phases[si]))
		if st.Folded {
			foldedPhases += int64(len(topoCP.Phases[si]))
		}
	}
	wantBarriers := (phases - foldedPhases) * int64(2*pes)
	if topoEst.Barriers != wantBarriers {
		t.Fatalf("topology barriers %d, want %d (%d live phases)", topoEst.Barriers, wantBarriers, phases-foldedPhases)
	}
	if flatEst.Barriers != int64(flatCP.Plan.Remaps*2*pes) {
		t.Fatalf("flat barriers %d, want %d", flatEst.Barriers, flatCP.Plan.Remaps*2*pes)
	}
}
