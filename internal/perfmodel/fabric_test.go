package perfmodel

import (
	"testing"

	"svsim/internal/compile"
	"svsim/internal/core"
	"svsim/internal/qasmbench"
	"svsim/internal/sched"
)

func compiledLazy(t *testing.T, name string, pes int) *compile.CompiledPlan {
	t.Helper()
	e, err := qasmbench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build().StripNonUnitary()
	cp, _, err := compile.Compile(c, compile.Config{Sched: sched.Lazy, PEs: pes})
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// EstimateCommPlan reads the exact one-sided traffic off an already
// compiled plan: each remap step's exchange geometry gives its steps —
// one put of one chunk and one barrier per step on every PE — and the
// amplitudes each PE moves, with no re-planning.
func EstimateCommPlan(cp *compile.CompiledPlan) CommEstimate {
	var est CommEstimate
	p := cp.PEs
	if p <= 1 || cp.Plan == nil {
		return est
	}
	for i := range cp.Plan.Steps {
		step := &cp.Plan.Steps[i]
		// A remap in the classical prefix moves no data and synchronizes
		// nothing: a fresh run folds it into its starting basis state.
		if step.Kind != sched.StepRemap || i < cp.Plan.Prefix {
			continue
		}
		ex := cp.Exchanges[i]
		est.RemoteMsgs += int64(p * ex.Steps())
		est.RemoteBytes += int64(p) * ex.MovedAmps() * 16
		est.Barriers += int64(p * ex.Steps())
	}
	return est
}

func TestEstimateCommPlanMatchesLazy(t *testing.T) {
	// The plan-based estimator prices each remap at one put of one chunk
	// and one barrier per exchange step on every PE; an executed scale-out
	// lazy run of the same plan must show exactly that traffic.
	for _, cell := range []struct {
		name string
		pes  int
	}{{"qft_n15", 8}, {"bv_n14", 4}} {
		cp := compiledLazy(t, cell.name, cell.pes)
		est := EstimateCommPlan(cp)
		res, err := core.NewScaleOut(core.Config{PEs: cell.pes, Sched: sched.Lazy}).Run(cp.Source)
		if err != nil {
			t.Fatal(err)
		}
		got := CommEstimate{RemoteMsgs: res.Comm.RemoteMessages(), RemoteBytes: res.Comm.RemoteBytes, Barriers: res.Comm.Barriers}
		if est != got || est.RemoteMsgs == 0 {
			t.Fatalf("%s x%d: plan-based estimate %+v, executed run %+v", cell.name, cell.pes, est, got)
		}
	}
}

func TestScaleOutSecondsUsesInjectionCap(t *testing.T) {
	// With a vanishing message rate the model must be bound by injection
	// latency, not bandwidth: dropping MsgRateGps by 100x must grow the
	// predicted time of the figures' message-heavy fine-grained traffic
	// once it crosses nodes.
	e, err := qasmbench.ByName("qft_n15")
	if err != nil {
		t.Fatal(err)
	}
	c := e.Build().StripNonUnitary()
	est := EstimateComm(c, 64)
	if est.RemoteMsgs == 0 {
		t.Fatal("no remote messages at 64 PEs; test is vacuous")
	}
	tr := TraceEstimate(c)
	fast := ScaleOutSeconds(tr, est, SummitCPU, 64)
	slowFab := SummitCPU
	slowFab.MsgRateGps = SummitCPU.MsgRateGps / 100
	slow := ScaleOutSeconds(tr, est, slowFab, 64)
	if slow <= fast {
		t.Fatalf("injection-rate cap not applied: %g s at 1/100 msg rate vs %g s", slow, fast)
	}
}
