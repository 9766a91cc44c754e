package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"svsim/internal/obs"
	"svsim/internal/statevec"
)

func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) (*http.Response, JobStatus) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp, st
}

func httpWaitDone(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
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

// End to end over HTTP: submit, poll to completion, fetch the binary
// state, and compare it bit for bit with a direct core run — the
// service must not perturb the simulation.
func TestHTTPSubmitStateBitIdentical(t *testing.T) {
	s := newTestServer(t, Options{
		Fleets:  []FleetDef{{Backend: "scale-out", PEs: 4}},
		Metrics: obs.NewMetrics(),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, st := postJob(t, ts, JobSpec{
		Tenant: "alice", Circuit: "bv_n14", Seed: 7, Sched: "lazy", ReturnState: true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Fatalf("Location %q", loc)
	}
	fin := httpWaitDone(t, ts, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job: %s (%s)", fin.State, fin.Detail)
	}

	sresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/state")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("state fetch: %d", sresp.StatusCode)
	}
	got, err := statevec.ReadState(sresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := directRun(t, "scale-out", 4, "bv_n14", 7, "lazy")
	if d := maxAbsDiff(got, want); d != 0 {
		t.Fatalf("HTTP state differs from direct run: MaxAbsDiff=%g", d)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	s := newTestServer(t, Options{
		Fleets:     []FleetDef{{Backend: "single", PEs: 1}},
		QueueDepth: 1,
		Tenants: &TenantConfig{Tenants: map[string]TenantQuota{
			"small": {MaxResidentBytes: 1024},
		}},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Malformed JSON -> 400.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed body: %d, want 400", resp.StatusCode)
	}

	// Unknown field -> 400 (a typo'd knob must not be silently dropped).
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"circuit": "cc_n12", "priorty": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("unknown field: %d, want 400", resp.StatusCode)
	}

	// Footprint over tenant budget -> 413.
	resp, _ = postJob(t, ts, JobSpec{Tenant: "small", Circuit: "cc_n12"})
	if resp.StatusCode != 413 {
		t.Fatalf("over budget: %d, want 413", resp.StatusCode)
	}

	// Queue full -> 429 with Retry-After.
	s.setPaused(true)
	resp, _ = postJob(t, ts, JobSpec{Circuit: "cc_n12"})
	if resp.StatusCode != 202 {
		t.Fatalf("first job: %d, want 202", resp.StatusCode)
	}
	resp, _ = postJob(t, ts, JobSpec{Circuit: "cc_n12"})
	if resp.StatusCode != 429 {
		t.Fatalf("queue full: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}

	// Unknown job -> 404; state of an unfinished job -> 409.
	resp, err = http.Get(ts.URL + "/v1/jobs/job-424242")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unknown job: %d, want 404", resp.StatusCode)
	}
}

func TestHTTPMetricsExposition(t *testing.T) {
	s := newTestServer(t, Options{
		Fleets:  []FleetDef{{Backend: "threaded", PEs: 2}},
		Metrics: obs.NewMetrics(),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tenant := range []string{"alice", "bob"} {
		resp, st := postJob(t, ts, JobSpec{Tenant: tenant, Circuit: "bv_n14", Fuse: true})
		if resp.StatusCode != 202 {
			t.Fatalf("%s submit: %d", tenant, resp.StatusCode)
		}
		if fin := httpWaitDone(t, ts, st.ID); fin.State != StateDone {
			t.Fatalf("%s job: %s (%s)", tenant, fin.State, fin.Detail)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	text := buf.String()
	for _, want := range []string{
		`serve_jobs_submitted_total{kind="alice"} 1`,
		`serve_jobs_completed_total{kind="bob"} 1`,
		`serve_plan_cache_cross_tenant_hits 1`,
		`serve_queue_depth 0`,
		`serve_fleets 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}

	// Tenant listing reflects both tenants.
	tresp, err := http.Get(ts.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	var tenants []TenantStatus
	if err := json.NewDecoder(tresp.Body).Decode(&tenants); err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 2 {
		t.Fatalf("tenants: %+v", tenants)
	}
	for _, tn := range tenants {
		if tn.ServedVT <= 0 {
			t.Fatalf("tenant %s has no fair-share charge: %+v", tn.Name, tn)
		}
	}
}

func TestHTTPCancelQueued(t *testing.T) {
	s := newTestServer(t, Options{Fleets: []FleetDef{{Backend: "single", PEs: 1}}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.setPaused(true)
	resp, st := postJob(t, ts, JobSpec{Circuit: "cc_n12"})
	if resp.StatusCode != 202 {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%s", ts.URL, st.ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	var got JobStatus
	if err := json.NewDecoder(dresp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled {
		t.Fatalf("canceled job state %s", got.State)
	}
}

// TestTerminalJobsDropTheirInput: the job table keeps terminal jobs, so
// a job that is done or canceled must let go of the parsed circuit and
// the inline QASM text it was submitted with — and GET /v1/jobs/{id}
// must go on rendering the status it rendered while it held them.
func TestTerminalJobsDropTheirInput(t *testing.T) {
	s := newTestServer(t, Options{Fleets: []FleetDef{{Backend: "single", PEs: 1}}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const src = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\nmeasure q -> c;\n"
	accepted := map[string]JobStatus{}
	for i := 0; i < 6; i++ {
		resp, st := postJob(t, ts, JobSpec{Tenant: "alice", Name: fmt.Sprintf("ghz%d.qasm", i), QASM: src, Seed: int64(i), Shots: 16})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		if st.Circuit != fmt.Sprintf("ghz%d", i) {
			t.Fatalf("submit %d: accepted as circuit %q", i, st.Circuit)
		}
		accepted[st.ID] = st
	}
	for id := range accepted {
		if fin := httpWaitDone(t, ts, id); fin.State != StateDone {
			t.Fatalf("%s: %s (%s)", id, fin.State, fin.Detail)
		}
	}
	// One more that turns terminal without ever running.
	s.setPaused(true)
	_, queued := postJob(t, ts, JobSpec{Tenant: "alice", Name: "never.qasm", QASM: src})
	if _, ok, err := s.Cancel(queued.ID); err != nil || !ok {
		t.Fatalf("cancel %s: ok=%v err=%v", queued.ID, ok, err)
	}
	accepted[queued.ID] = queued

	s.mu.Lock()
	for id, j := range s.jobs {
		if !j.terminal() {
			t.Errorf("%s is %s, want terminal", id, j.state)
		}
		if j.circ != nil || j.spec.QASM != "" {
			t.Errorf("%s (%s) still holds its input: circuit %v, %d bytes of QASM", id, j.state, j.circ != nil, len(j.spec.QASM))
		}
	}
	s.mu.Unlock()

	for id, was := range accepted {
		now := httpWaitDone(t, ts, id)
		if now.ID != was.ID || now.Tenant != was.Tenant || now.Circuit != was.Circuit ||
			now.Estimate != was.Estimate || now.EnqueuedAt != was.EnqueuedAt || now.FinishedAt == "" {
			t.Errorf("%s renders differently once terminal:\nqueued   %+v\nterminal %+v", id, was, now)
		}
		if now.State == StateDone && len(now.Counts) == 0 {
			t.Errorf("%s: done without its shot counts", id)
		}
	}
}
