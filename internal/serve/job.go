package serve

import (
	"fmt"
	"math/rand"
	"time"

	"svsim/internal/circuit"
	"svsim/internal/core"
	"svsim/internal/statevec"
)

// JobState is a job's position in its lifecycle.
type JobState string

// Job lifecycle. Queued jobs wait for a fleet; a running job may bounce
// back to queued when preempted (its checkpoint rides along); terminal
// states are done, failed, and canceled.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// job is the server's record of one submission. Mutable fields are
// guarded by the server mutex; the run goroutine reads its inputs
// before releasing the lock and writes results back under it.
type job struct {
	id   string
	seq  int64 // admission order, the fair-share tiebreaker
	spec JobSpec
	name string           // the circuit's name, all status() needs of it
	circ *circuit.Circuit // nil once the job is terminal
	est  Estimate

	state    JobState
	detail   string // failure cause / cancel reason
	enqueued time.Time
	started  time.Time
	finished time.Time

	fleet       string // label of the fleet running (or that ran) the job
	preemptions int
	charged     bool // fair-share virtual time charged (first dispatch)

	// Preemption plumbing: stop is the running job's latch; ckptDir
	// holds a checkpoint to continue from (with the geometry it was
	// taken at) when re-dispatched.
	stop        *core.StopLatch
	preempting  bool
	cancelAsked bool
	ckptDir     string
	ckptBackend string
	ckptPEs     int

	result *core.Result   // retained when ReturnState allows it
	counts map[string]int // shot histogram, when Shots > 0
}

// JobStatus is the wire form of a job (GET /v1/jobs/{id}).
type JobStatus struct {
	ID       string   `json:"id"`
	Tenant   string   `json:"tenant"`
	Circuit  string   `json:"circuit"`
	State    JobState `json:"state"`
	Detail   string   `json:"detail,omitempty"`
	Priority int      `json:"priority,omitempty"`

	Estimate Estimate `json:"estimate"`

	Fleet       string `json:"fleet,omitempty"`
	Preemptions int    `json:"preemptions,omitempty"`

	EnqueuedAt  string  `json:"enqueued_at"`
	StartedAt   string  `json:"started_at,omitempty"`
	FinishedAt  string  `json:"finished_at,omitempty"`
	WaitSeconds float64 `json:"wait_seconds,omitempty"`
	RunSeconds  float64 `json:"run_seconds,omitempty"`

	PEs       int            `json:"pes,omitempty"`
	ElapsedNS int64          `json:"elapsed_ns,omitempty"`
	Counts    map[string]int `json:"counts,omitempty"`
	StateKept bool           `json:"state_kept,omitempty"`
}

// status renders the job for the API. Caller holds the server mutex.
func (j *job) status() JobStatus {
	st := JobStatus{
		ID:          j.id,
		Tenant:      j.spec.Tenant,
		Circuit:     j.name,
		State:       j.state,
		Detail:      j.detail,
		Priority:    j.spec.Priority,
		Estimate:    j.est,
		Fleet:       j.fleet,
		Preemptions: j.preemptions,
		EnqueuedAt:  j.enqueued.UTC().Format(time.RFC3339Nano),
		Counts:      j.counts,
		StateKept:   j.result != nil && j.result.State != nil,
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
		st.WaitSeconds = j.started.Sub(j.enqueued).Seconds()
	}
	if !j.finished.IsZero() {
		st.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
		if !j.started.IsZero() {
			st.RunSeconds = j.finished.Sub(j.started).Seconds()
		}
	}
	if j.result != nil {
		st.PEs = j.result.PEs
		st.ElapsedNS = j.result.Elapsed.Nanoseconds()
	}
	return st
}

// finish turns the job terminal and lets go of its input — the parsed
// circuit and the inline QASM text — which nothing reads again; the job
// table keeps terminal jobs, so what they hold is the table's footprint.
func (j *job) finish(state JobState, detail string) {
	j.state, j.detail, j.finished = state, detail, time.Now()
	j.circ, j.spec.QASM = nil, ""
}

// terminal reports whether the job can no longer change state.
func (j *job) terminal() bool {
	switch j.state {
	case StateDone, StateFailed, StateCanceled:
		return true
	}
	return false
}

// sampleCounts draws the job's shot histogram from the final state the
// same way the CLI does (same seed, same RNG stream), keyed by the
// basis-state bit string.
func sampleCounts(st *statevec.State, seed int64, shots int) map[string]int {
	rng := rand.New(rand.NewSource(seed))
	counts := st.Counts(rng, shots)
	out := make(map[string]int, len(counts))
	for k, v := range counts {
		out[fmt.Sprintf("%0*b", st.N, k)] = v
	}
	return out
}
