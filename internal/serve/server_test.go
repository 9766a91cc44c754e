package serve

import (
	"errors"
	"math"
	"testing"
	"time"

	"svsim/internal/core"
	"svsim/internal/statevec"
)

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.WorkDir == "" {
		opts.WorkDir = t.TempDir()
	}
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = 2
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func (s *Server) setPaused(p bool) {
	s.mu.Lock()
	s.paused = p
	s.mu.Unlock()
	s.cond.Broadcast()
}

// waitJob polls until the job reaches a terminal state.
func waitJob(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State.terminalHTTP() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitRunning(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateRunning {
			return
		}
		if st.State.terminalHTTP() {
			t.Fatalf("job %s finished (%s) before it was observed running", id, st.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started (state %s)", id, st.State)
		}
		time.Sleep(time.Millisecond)
	}
}

func submitStatus(t *testing.T, err error) *SubmitError {
	t.Helper()
	var se *SubmitError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a SubmitError", err)
	}
	return se
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	s := newTestServer(t, Options{Fleets: []FleetDef{{Backend: "single", PEs: 1}}})
	for _, spec := range []JobSpec{
		{},                                     // nothing to run
		{Circuit: "bv_n14", QASM: "x"},         // both sources
		{Circuit: "no_such_circuit"},           // unknown workload
		{Circuit: "bv_n14", Backend: "warp"},   // unknown backend
		{Circuit: "bv_n14", PEs: 3},            // non-power-of-two
		{Circuit: "bv_n14", Sched: "eager"},    // unknown schedule
		{Circuit: "bv_n14", Shots: -1},         // negative shots
		{Circuit: "bv_n14", Tenant: "a b"},     // exposition-unsafe name
		{QASM: "OPENQASM 9;"},                  // parse error
		{Circuit: "bv_n14", Backend: "remote"}, // not a fleet backend
	} {
		_, err := s.Submit(spec)
		if err == nil {
			t.Fatalf("spec %+v admitted, want rejection", spec)
		}
		if se := submitStatus(t, err); se.Status != 400 {
			t.Fatalf("spec %+v: status %d, want 400", spec, se.Status)
		}
	}
	// A spec no pool fleet can satisfy: PEs hint not in the pool.
	_, err := s.Submit(JobSpec{Circuit: "bv_n14", PEs: 8})
	if se := submitStatus(t, err); se.Status != 400 {
		t.Fatalf("incompatible pes hint: status %d, want 400", se.Status)
	}
}

func TestAdmissionRejectsFootprintOverBudget(t *testing.T) {
	tc := &TenantConfig{Tenants: map[string]TenantQuota{
		// bv_n14 needs 16*2^14 = 256 KiB; allow only 64 KiB.
		"small": {MaxResidentBytes: 64 << 10},
	}}
	s := newTestServer(t, Options{
		Fleets:  []FleetDef{{Backend: "single", PEs: 1}},
		Tenants: tc,
	})
	_, err := s.Submit(JobSpec{Tenant: "small", Circuit: "bv_n14"})
	if se := submitStatus(t, err); se.Status != 413 {
		t.Fatalf("over-quota footprint: status %d, want 413", se.Status)
	}
	// The same job is fine for an unlimited tenant.
	if _, err := s.Submit(JobSpec{Tenant: "big", Circuit: "bv_n14"}); err != nil {
		t.Fatalf("unlimited tenant rejected: %v", err)
	}

	// A server-wide budget rejects regardless of tenant.
	s2 := newTestServer(t, Options{
		Fleets:   []FleetDef{{Backend: "single", PEs: 1}},
		MaxBytes: 64 << 10,
	})
	_, err = s2.Submit(JobSpec{Circuit: "bv_n14"})
	if se := submitStatus(t, err); se.Status != 413 {
		t.Fatalf("over-server-budget footprint: status %d, want 413", se.Status)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	s := newTestServer(t, Options{
		Fleets:     []FleetDef{{Backend: "single", PEs: 1}},
		QueueDepth: 2,
	})
	s.setPaused(true)
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(JobSpec{Circuit: "cc_n12"}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := s.Submit(JobSpec{Circuit: "cc_n12"})
	se := submitStatus(t, err)
	if se.Status != 429 {
		t.Fatalf("full queue: status %d, want 429", se.Status)
	}
	if se.RetryAfter < 1 {
		t.Fatalf("full queue: Retry-After %d, want >= 1", se.RetryAfter)
	}
}

func TestTenantQueueDepthBackpressure(t *testing.T) {
	tc := &TenantConfig{Tenants: map[string]TenantQuota{
		"alice": {MaxQueued: 1},
	}}
	s := newTestServer(t, Options{
		Fleets:  []FleetDef{{Backend: "single", PEs: 1}},
		Tenants: tc,
	})
	s.setPaused(true)
	if _, err := s.Submit(JobSpec{Tenant: "alice", Circuit: "cc_n12"}); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit(JobSpec{Tenant: "alice", Circuit: "cc_n12"})
	se := submitStatus(t, err)
	if se.Status != 429 || se.RetryAfter < 1 {
		t.Fatalf("tenant queue full: status %d retry-after %d, want 429 and >= 1", se.Status, se.RetryAfter)
	}
	// Another tenant still has room.
	if _, err := s.Submit(JobSpec{Tenant: "bob", Circuit: "cc_n12"}); err != nil {
		t.Fatalf("bob rejected alongside alice's backpressure: %v", err)
	}
}

// Fair share: with one fleet and equal priorities, two tenants' queued
// jobs interleave by consumed virtual time instead of draining one
// tenant first.
func TestFairShareInterleavesTenants(t *testing.T) {
	s := newTestServer(t, Options{Fleets: []FleetDef{{Backend: "single", PEs: 1}}})
	s.setPaused(true)
	var ids []string
	// alice floods first; bob arrives later with the same workload.
	for _, tenant := range []string{"alice", "alice", "alice", "bob", "bob", "bob"} {
		st, err := s.Submit(JobSpec{Tenant: tenant, Circuit: "cc_n12"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	s.setPaused(false)
	order := make(map[string]time.Time)
	for _, id := range ids {
		st := waitJob(t, s, id)
		if st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Detail)
		}
		start, err := time.Parse(time.RFC3339Nano, st.StartedAt)
		if err != nil {
			t.Fatal(err)
		}
		order[id] = start
	}
	// Dispatch order by start time: a, b, a, b, a, b — not a, a, a, b...
	type slot struct {
		id string
		at time.Time
	}
	var slots []slot
	for id, at := range order {
		slots = append(slots, slot{id, at})
	}
	for i := 0; i < len(slots); i++ {
		for j := i + 1; j < len(slots); j++ {
			if slots[j].at.Before(slots[i].at) {
				slots[i], slots[j] = slots[j], slots[i]
			}
		}
	}
	tenantOf := func(id string) string {
		st, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		return st.Tenant
	}
	var got []string
	for _, sl := range slots {
		got = append(got, tenantOf(sl.id))
	}
	want := []string{"alice", "bob", "alice", "bob", "alice", "bob"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want alternating %v", got, want)
		}
	}
}

// Preempt/resume round trip: a high-priority job evicts a running
// low-priority one through the checkpoint path; the victim resumes
// elastically on a differently-sized fleet and its final state is
// bit-identical to an uninterrupted direct core run.
func TestPreemptElasticResumeAcrossFleets(t *testing.T) {
	s := newTestServer(t, Options{
		Fleets: []FleetDef{
			{Backend: "scale-out", PEs: 2},
			{Backend: "scale-out", PEs: 4},
		},
	})

	low, err := s.Submit(JobSpec{
		Tenant: "batch", Circuit: "qft_n15", Seed: 3, Sched: "lazy",
		ReturnState: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The scheduler prefers the smallest fleet, so low lands on PEs=2.
	waitRunning(t, s, low.ID)

	// High-priority job pinned to the busy fleet's geometry: the only
	// compatible fleet is occupied by a lower-priority job -> preempt.
	high, err := s.Submit(JobSpec{
		Tenant: "interactive", Circuit: "bv_n14", Seed: 5, PEs: 2, Priority: 10,
	})
	if err != nil {
		t.Fatal(err)
	}

	lowSt := waitJob(t, s, low.ID)
	highSt := waitJob(t, s, high.ID)
	if highSt.State != StateDone {
		t.Fatalf("high-priority job: %s (%s)", highSt.State, highSt.Detail)
	}
	if lowSt.State != StateDone {
		t.Fatalf("preempted job: %s (%s)", lowSt.State, lowSt.Detail)
	}
	if lowSt.Preemptions < 1 {
		t.Fatalf("low-priority job was never preempted (preemptions=%d)", lowSt.Preemptions)
	}
	if lowSt.PEs != 4 {
		t.Fatalf("preempted job finished on %d PEs, want elastic resume on 4", lowSt.PEs)
	}

	got, err := s.JobResultState(low.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := directRun(t, "scale-out", 2, "qft_n15", 3, "lazy")
	if d := maxAbsDiff(got, want); d != 0 {
		t.Fatalf("preempt+elastic-resume state differs from direct run: MaxAbsDiff=%g", d)
	}
}

// TestMPIFleetStateBitIdentical: mpi is a row of core's backend table,
// so it pools like any other backend — a job on an mpi:4 fleet returns
// the state a direct core.NewBackend("mpi") run computes, bit for bit,
// under either plan.
func TestMPIFleetStateBitIdentical(t *testing.T) {
	s := newTestServer(t, Options{Fleets: []FleetDef{{Backend: "mpi", PEs: 4}}, CheckpointEvery: 100})
	for _, pol := range []string{"naive", "lazy"} {
		st, err := s.Submit(JobSpec{Circuit: "qft_n15", Backend: "mpi", Seed: 3, Sched: pol, ReturnState: true})
		if err != nil {
			t.Fatal(err)
		}
		if fin := waitJob(t, s, st.ID); fin.State != StateDone || fin.PEs != 4 {
			t.Fatalf("%s job: %s on %d PEs (%s)", pol, fin.State, fin.PEs, fin.Detail)
		}
		got, err := s.JobResultState(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(got, directRun(t, "mpi", 4, "qft_n15", 3, pol)); d != 0 {
			t.Fatalf("%s: mpi fleet state differs from direct run: MaxAbsDiff=%g", pol, d)
		}
	}
}

// directRun executes a workload through the core layer the way the CLI
// does, bypassing the service entirely.
func directRun(t *testing.T, backend string, pes int, circuitName string, seed int64, schedName string) *statevec.State {
	t.Helper()
	spec := JobSpec{Circuit: circuitName, Seed: seed, Sched: schedName}
	c, err := spec.Load()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{PEs: pes, Style: statevec.Vectorized}
	spec.ApplyCore(&cfg)
	cfg.PEs = pes
	b, err := core.NewBackend(backend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	return res.State
}

func maxAbsDiff(a, b *statevec.State) float64 {
	d := 0.0
	for i := 0; i < a.Dim; i++ {
		d = math.Max(d, math.Abs(a.Re[i]-b.Re[i]))
		d = math.Max(d, math.Abs(a.Im[i]-b.Im[i]))
	}
	return d
}

// Two tenants submitting the same circuit skeleton compile once: the
// second tenant's job hits the shared plan cache and the hit is
// attributed cross-tenant.
func TestSharedPlanCacheCrossTenantHit(t *testing.T) {
	s := newTestServer(t, Options{Fleets: []FleetDef{{Backend: "threaded", PEs: 2}}})
	for _, tenant := range []string{"alice", "bob"} {
		st, err := s.Submit(JobSpec{Tenant: tenant, Circuit: "bv_n14", Fuse: true, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if fin := waitJob(t, s, st.ID); fin.State != StateDone {
			t.Fatalf("%s job: %s (%s)", tenant, fin.State, fin.Detail)
		}
	}
	st := s.PlanCacheStats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("plan cache stats %+v, want exactly 1 miss + 1 hit", st)
	}
	if st.CrossLabelHits != 1 {
		t.Fatalf("cross-tenant hits = %d, want 1", st.CrossLabelHits)
	}
	by := s.plans.StatsByLabel()
	if by["alice"].Misses != 1 || by["bob"].CrossLabelHits != 1 {
		t.Fatalf("per-tenant attribution %+v", by)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s := newTestServer(t, Options{Fleets: []FleetDef{{Backend: "single", PEs: 1}}})
	s.setPaused(true)
	st, err := s.Submit(JobSpec{Circuit: "cc_n12"})
	if err != nil {
		t.Fatal(err)
	}
	got, changed, err := s.Cancel(st.ID)
	if err != nil || !changed || got.State != StateCanceled {
		t.Fatalf("cancel queued: state=%s changed=%v err=%v", got.State, changed, err)
	}
	// Canceling a terminal job is a no-op.
	if _, changed, _ := s.Cancel(st.ID); changed {
		t.Fatal("cancel of a canceled job reported a change")
	}
	if _, _, err := s.Cancel("job-999999"); err == nil {
		t.Fatal("cancel of unknown job succeeded")
	}
}

// Shots ride the job status and match the CLI's sampling for the same
// seed.
func TestShotsMatchDirectSampling(t *testing.T) {
	s := newTestServer(t, Options{Fleets: []FleetDef{{Backend: "single", PEs: 1}}})
	st, err := s.Submit(JobSpec{Circuit: "cc_n12", Seed: 11, Shots: 32})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitJob(t, s, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job: %s (%s)", fin.State, fin.Detail)
	}
	total := 0
	for _, n := range fin.Counts {
		total += n
	}
	if total != 32 {
		t.Fatalf("counts sum to %d, want 32", total)
	}
	direct := directRun(t, "single", 1, "cc_n12", 11, "")
	want := sampleCounts(direct, 11, 32)
	for k, v := range want {
		if fin.Counts[k] != v {
			t.Fatalf("counts[%s] = %d, want %d (CLI-equivalent sampling)", k, fin.Counts[k], v)
		}
	}
}
