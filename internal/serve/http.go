package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"svsim/internal/obs"
)

// maxSpecBytes bounds a job submission body (QASM source included).
const maxSpecBytes = 8 << 20

// Handler builds the service's HTTP API:
//
//	POST   /v1/jobs          submit a JobSpec, 202 + JobStatus
//	GET    /v1/jobs          list jobs (?tenant= filters)
//	GET    /v1/jobs/{id}     one job's status
//	GET    /v1/jobs/{id}/state  final state vector (binary, bit-exact),
//	                         handed over: once written in full the server
//	                         drops its copy and later fetches get 410
//	DELETE /v1/jobs/{id}     cancel (queued: immediate; running: at the
//	                         next checkpoint boundary)
//	GET    /v1/tenants       quota and usage per tenant
//	GET    /healthz          liveness
//
// The observability surface (/metrics, /debug/flight, /debug/pprof) is
// mounted from obs.Mux with the server's refresh hook, so scrapes see
// live queue depth, per-tenant usage, and plan-cache attribution.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/state", s.handleJobState)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	obsMux := obs.Mux(obs.ServeOpts{Metrics: s.opts.Metrics, Flight: s.opts.Flight}, s.RefreshMetrics)
	mux.Handle("/metrics", obsMux)
	mux.Handle("/debug/", obsMux)
	return mux
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, apiError{Error: msg})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("job spec: %v", err))
		return
	}
	st, err := s.Submit(spec)
	if err != nil {
		var se *SubmitError
		if errors.As(err, &se) {
			if se.RetryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(se.RetryAfter))
			}
			writeError(w, se.Status, se.Msg)
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs(r.URL.Query().Get("tenant")))
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	st, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleJobState(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := s.Job(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	sv, err := s.takeState(id)
	switch {
	case errors.Is(err, ErrStateGone):
		writeError(w, http.StatusGone, err.Error())
		return
	case err != nil && !st.State.terminalHTTP():
		writeError(w, http.StatusConflict, err.Error())
		return
	case err != nil:
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	// The state is handed over only once it has reached the connection in
	// full; a failed write leaves it kept for the client's retry.
	written := false
	defer func() { s.handOver(id, sv, written) }()
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := sv.WriteTo(w); err != nil {
		return
	}
	if err := http.NewResponseController(w).Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
		return
	}
	written = true
}

// terminalHTTP reports whether a state can no longer yield a state
// vector later (404) as opposed to "not finished yet" (409).
func (st JobState) terminalHTTP() bool {
	switch st {
	case StateDone, StateFailed, StateCanceled:
		return true
	}
	return false
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, _, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleTenants(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Tenants())
}
