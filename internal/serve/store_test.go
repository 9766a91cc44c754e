package serve

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"svsim/internal/core"
	"svsim/internal/qasmbench"
	"svsim/internal/statevec"
)

// ghz5 is a five-qubit job: its state is 512 bytes, half of the 1 KiB
// result store a StateQubitLimit of 6 sizes.
const ghz5 = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[5];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\nry(0.3) q[4];\ncx q[3],q[4];\n"

// fetchState GETs a job's state over HTTP and returns the status code
// with either the decoded state (200) or the error body. It reads the
// body to its end, which the server sends once the handler returned.
func fetchState(t *testing.T, ts *httptest.Server, id string) (int, *statevec.State, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, nil, string(body)
	}
	sv, err := statevec.ReadState(resp.Body)
	if err != nil {
		t.Fatalf("%s: reading the state: %v", id, err)
	}
	if rest, err := io.ReadAll(resp.Body); err != nil || len(rest) != 0 {
		t.Fatalf("%s: %d bytes past the state (%v)", id, len(rest), err)
	}
	return resp.StatusCode, sv, ""
}

// runDone submits a job and waits for it to finish done.
func runDone(t *testing.T, s *Server, spec JobSpec) JobStatus {
	t.Helper()
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitJob(t, s, st.ID)
	if fin.State != StateDone {
		t.Fatalf("%s: %s (%s)", st.ID, fin.State, fin.Detail)
	}
	return fin
}

// directStyle runs a spec's circuit straight on the single backend with
// the given kernel style.
func directStyle(t *testing.T, spec JobSpec, style statevec.KernelStyle) *statevec.State {
	t.Helper()
	c, err := spec.Load()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Style: style}
	spec.ApplyCore(&cfg)
	res, err := core.NewSingleDevice(cfg).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	return res.State
}

// TestHTTPStateHandedOverOnce: the first fetch returns the state bit for
// bit and hands it over; the job stops keeping it and a second fetch
// answers 410 with the reason.
func TestHTTPStateHandedOverOnce(t *testing.T) {
	s := newTestServer(t, Options{Fleets: []FleetDef{{Backend: "single", PEs: 1}}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := JobSpec{Circuit: "cc_n12", Seed: 4, ReturnState: true}
	resp, st := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if fin := httpWaitDone(t, ts, st.ID); fin.State != StateDone || !fin.StateKept {
		t.Fatalf("job: %s, state_kept=%v (%s)", fin.State, fin.StateKept, fin.Detail)
	}
	code, got, body := fetchState(t, ts, st.ID)
	if code != http.StatusOK {
		t.Fatalf("first fetch: %d %s", code, body)
	}
	if d := maxAbsDiff(got, directStyle(t, spec, statevec.Vectorized)); d != 0 {
		t.Fatalf("fetched state differs from a direct run: MaxAbsDiff=%g", d)
	}
	if after := httpWaitDone(t, ts, st.ID); after.StateKept {
		t.Fatal("state_kept still true after the state was handed over")
	}
	code, _, body = fetchState(t, ts, st.ID)
	if code != http.StatusGone || !strings.Contains(body, "handed over") {
		t.Fatalf("second fetch: %d %s, want 410 naming the hand-over", code, body)
	}
}

// TestResultStoreEvictsOldestUnfetched: StateQubitLimit 6 makes a 1 KiB
// store, two five-qubit states. A third evicts the oldest-finished one,
// whose fetch then answers 410; the two newer ones still fetch.
func TestResultStoreEvictsOldestUnfetched(t *testing.T) {
	s := newTestServer(t, Options{Fleets: []FleetDef{{Backend: "single", PEs: 1}}, StateQubitLimit: 6})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		ids = append(ids, runDone(t, s, JobSpec{QASM: ghz5, Seed: seed, ReturnState: true}).ID)
	}
	if st, _ := s.Job(ids[0]); st.StateKept {
		t.Fatal("oldest state still kept over the budget")
	}
	code, _, body := fetchState(t, ts, ids[0])
	if code != http.StatusGone || !strings.Contains(body, "evicted") {
		t.Fatalf("oldest fetch: %d %s, want 410 naming the eviction", code, body)
	}
	want := directStyle(t, JobSpec{QASM: ghz5}, statevec.Vectorized)
	for _, id := range ids[1:] {
		code, got, body := fetchState(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", id, code, body)
		}
		if d := maxAbsDiff(got, want); d != 0 {
			t.Fatalf("%s: MaxAbsDiff=%g", id, d)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.kept.Len() != 0 || s.keptBytes != 0 {
		t.Fatalf("store holds %d states, %d bytes after every kept one was fetched", s.kept.Len(), s.keptBytes)
	}
}

// brokenConn is a ResponseWriter whose connection is gone.
type brokenConn struct{ header http.Header }

func (b *brokenConn) Header() http.Header       { return b.header }
func (b *brokenConn) WriteHeader(int)           {}
func (b *brokenConn) Write([]byte) (int, error) { return 0, errors.New("connection reset by peer") }

// TestFailedStateWriteKeepsState: a fetch whose body does not get out
// leaves the state kept, and the next fetch receives it.
func TestFailedStateWriteKeepsState(t *testing.T) {
	s := newTestServer(t, Options{Fleets: []FleetDef{{Backend: "single", PEs: 1}}})
	h := s.Handler()
	id := runDone(t, s, JobSpec{QASM: ghz5, ReturnState: true}).ID
	path := "/v1/jobs/" + id + "/state"

	h.ServeHTTP(&brokenConn{header: http.Header{}}, httptest.NewRequest(http.MethodGet, path, nil))
	if st, _ := s.Job(id); !st.StateKept {
		t.Fatal("a failed write dropped the state")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("retry: %d %s", rec.Code, rec.Body)
	}
	got, err := statevec.ReadState(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got, directStyle(t, JobSpec{QASM: ghz5}, statevec.Vectorized)); d != 0 {
		t.Fatalf("retried fetch: MaxAbsDiff=%g", d)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusGone {
		t.Fatalf("fetch after the hand-over: %d, want 410", rec.Code)
	}
}

// TestConcurrentStateFetches: of two fetches racing for one state,
// exactly one receives it and the other gets 410 — never both, never
// neither, never a panic.
func TestConcurrentStateFetches(t *testing.T) {
	s := newTestServer(t, Options{Fleets: []FleetDef{{Backend: "single", PEs: 1}}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for trial := 0; trial < 8; trial++ {
		id := runDone(t, s, JobSpec{QASM: ghz5, Seed: int64(trial), ReturnState: true}).ID
		var wg sync.WaitGroup
		var codes [2]int
		for i := range codes {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/state")
				if err != nil {
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the status matters
				resp.Body.Close()
				codes[i] = resp.StatusCode
			}(i)
		}
		wg.Wait()
		ok := 0
		for _, c := range codes {
			switch c {
			case http.StatusOK:
				ok++
			case http.StatusGone:
			default:
				t.Fatalf("trial %d: fetch answered %d", trial, c)
			}
		}
		if ok != 1 {
			t.Fatalf("trial %d: %d fetches received the state, want 1", trial, ok)
		}
		if st, _ := s.Job(id); st.StateKept {
			t.Fatalf("trial %d: state still kept after a full fetch", trial)
		}
	}
}

// TestServedStatesMatchBothStyles pins what the Vectorized default rests
// on: every medium-suite circuit and rqc, served as a ReturnState job,
// returns exactly the state a direct single-device run computes with
// either kernel style.
func TestServedStatesMatchBothStyles(t *testing.T) {
	s := newTestServer(t, Options{Fleets: []FleetDef{{Backend: "single", PEs: 1}}, CheckpointEvery: 1 << 30})
	rqc, err := qasmbench.ByName("rqc")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range append(qasmbench.Medium(), rqc) {
		spec := JobSpec{Circuit: e.Name, Seed: 9, ReturnState: true}
		id := runDone(t, s, spec).ID
		got, err := s.JobResultState(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, style := range []statevec.KernelStyle{statevec.Scalar, statevec.Vectorized} {
			if d := maxAbsDiff(got, directStyle(t, spec, style)); d != 0 {
				t.Errorf("%s: served state differs from a direct style-%d run: MaxAbsDiff=%g", e.Name, style, d)
			}
		}
	}
}
