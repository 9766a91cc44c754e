package perfmodel

import (
	"testing"

	"svsim/internal/compile"
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

func TestEstimateCommPlanMatchesLazy(t *testing.T) {
	// The plan-based estimator is the same computation EstimateCommLazy
	// performs after compiling; handing it an existing plan must agree.
	cp := compiledLazy(t, "qft_n15", 8)
	fromPlan := EstimateCommPlan(cp)
	direct, err := EstimateCommLazy(cp.Source, 8)
	if err != nil {
		t.Fatal(err)
	}
	if fromPlan != direct {
		t.Fatalf("plan-based estimate %+v, direct %+v", fromPlan, direct)
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
