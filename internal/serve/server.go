package serve

import (
	"container/list"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"

	"svsim/internal/ckpt"
	"svsim/internal/compile"
	"svsim/internal/core"
	"svsim/internal/obs"
	"svsim/internal/statevec"
)

// FleetDef describes one fleet of the service's pool.
type FleetDef struct {
	Backend string // a row of core's backend table
	PEs     int    // power of two
}

// Options configures a Server.
type Options struct {
	// Fleets is the execution pool: each entry becomes one core.Fleet,
	// constructed at boot and reused for every job scheduled onto it.
	Fleets []FleetDef
	// QueueDepth bounds the global waiting queue; past it submissions
	// get 429 with Retry-After. Defaults to 64.
	QueueDepth int
	// Tenants is the quota table (nil means everyone unlimited,
	// weight 1).
	Tenants *TenantConfig
	// MaxBytes is the global footprint budget: a job whose predicted
	// resident bytes exceed it is rejected at submit with 413. Zero
	// means unlimited.
	MaxBytes int64
	// WorkDir holds per-job checkpoint directories (the preemption
	// mechanism). Defaults to the OS temp dir.
	WorkDir string
	// CheckpointEvery is the preemption granularity: running jobs write
	// a coordinated checkpoint every N schedule steps, and the stop
	// vote rides those boundaries. Defaults to 16.
	CheckpointEvery int
	// PlanCacheSize caps the shared cross-tenant plan cache (skeleton
	// fingerprints -> compiled plans). Defaults to 128.
	PlanCacheSize int
	// StateQubitLimit caps the qubit count for which ReturnState jobs
	// retain their final state vector, and so sizes the result store:
	// the states nobody has fetched yet are kept within
	// FootprintBytes(StateQubitLimit, false) — one state at the limit —
	// evicting the oldest-finished first. Defaults to 26 (1 GiB).
	StateQubitLimit int
	// Metrics, when non-nil, receives service counters and gauges
	// (per-tenant job counts, queue depth, plan-cache attribution).
	Metrics *obs.Metrics
	// Flight, when non-nil, records job lifecycle events (submit,
	// dispatch, preempt, complete) alongside the runtime's own.
	Flight *obs.FlightRecorder
}

// Service metric names. Per-tenant families use the registry's dotted
// convention (serve_jobs_completed.alice renders as
// serve_jobs_completed{kind="alice"}).
const (
	MetricJobsSubmitted = "serve_jobs_submitted"
	MetricJobsCompleted = "serve_jobs_completed"
	MetricJobsFailed    = "serve_jobs_failed"
	MetricJobsPreempted = "serve_jobs_preempted"
	MetricJobsRejected  = "serve_jobs_rejected"
	MetricJobsCanceled  = "serve_jobs_canceled"

	MetricQueueDepth  = "serve_queue_depth"
	MetricJobsRunning = "serve_jobs_running"
	MetricFleetsBusy  = "serve_fleets_busy"
	MetricFleets      = "serve_fleets"

	MetricTenantResidentBytes = "serve_tenant_resident_bytes"
	MetricTenantQueued        = "serve_tenant_queued"
	MetricTenantServedVT      = "serve_tenant_served_vt"

	MetricPlanCacheHits      = "serve_plan_cache_hits"
	MetricPlanCacheMisses    = "serve_plan_cache_misses"
	MetricPlanCacheCrossHits = "serve_plan_cache_cross_tenant_hits"
	MetricPlanCacheEntries   = "serve_plan_cache_entries"
	MetricPlanCacheTenantHit = "serve_plan_cache_tenant_hits"
)

// Flight-event kinds recorded by the service layer.
const (
	EventJobSubmitted = "job_submitted"
	EventJobDispatch  = "job_dispatch"
	EventJobPreempt   = "job_preempt"
	EventJobDone      = "job_done"
	EventJobFailed    = "job_failed"
	EventJobRejected  = "job_rejected"
)

// SubmitError is an admission failure with its HTTP mapping: 400 for
// malformed or unrunnable specs, 413 for footprints over budget, 429
// (with RetryAfter) for backpressure, 503 when draining.
type SubmitError struct {
	Status     int
	RetryAfter int // seconds, set on 429
	Msg        string
}

func (e *SubmitError) Error() string { return e.Msg }

func submitErrf(status int, format string, args ...any) *SubmitError {
	return &SubmitError{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// tenantState is the server's accounting for one tenant.
type tenantState struct {
	name     string
	quota    TenantQuota
	running  int
	resident int64 // predicted bytes of running jobs
	queued   int
	servedVT float64 // fair-share virtual time consumed
}

// fleetState is one pool entry plus its scheduling state.
type fleetState struct {
	label       string
	fleet       *core.Fleet
	distributed bool
	busy        *job // nil when idle
}

// Server is the multi-tenant simulation service: admission control,
// the bounded fair-share queue, the fleet pool, and the job table.
// One dispatcher goroutine moves jobs from queue to fleets; each
// dispatched job runs on its own goroutine (the fleet serializes).
type Server struct {
	opts  Options
	plans *compile.Cache

	mu        sync.Mutex
	cond      *sync.Cond
	jobs      map[string]*job
	queue     []*job
	kept      list.List // *job whose state is retained, oldest-finished first
	keptBytes int64     // state bytes of kept
	tenants   map[string]*tenantState
	fleets    []*fleetState
	nextSeq   int64
	closed    bool
	paused    bool // test hook: freeze dispatch to observe queue order

	running sync.WaitGroup // live job goroutines
	loop    sync.WaitGroup // the dispatcher
}

// New builds the fleet pool and starts the dispatcher.
func New(opts Options) (*Server, error) {
	if len(opts.Fleets) == 0 {
		return nil, fmt.Errorf("serve: fleet pool is empty")
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 16
	}
	if opts.PlanCacheSize <= 0 {
		opts.PlanCacheSize = 128
	}
	if opts.StateQubitLimit <= 0 {
		opts.StateQubitLimit = 26
	}
	if opts.WorkDir == "" {
		opts.WorkDir = filepath.Join(os.TempDir(), "svserved")
	}
	s := &Server{
		opts:    opts,
		plans:   compile.NewCache(opts.PlanCacheSize),
		jobs:    make(map[string]*job),
		tenants: make(map[string]*tenantState),
	}
	s.cond = sync.NewCond(&s.mu)
	for i, def := range opts.Fleets {
		f, err := core.NewFleet(def.Backend, core.Config{
			PEs:     def.PEs,
			Metrics: opts.Metrics,
			Flight:  opts.Flight,
		})
		if err != nil {
			for _, fs := range s.fleets {
				fs.fleet.Close()
			}
			return nil, fmt.Errorf("serve: fleet %d (%s:%d): %v", i, def.Backend, def.PEs, err)
		}
		b, _ := core.LookupBackend(def.Backend)
		s.fleets = append(s.fleets, &fleetState{
			label:       fmt.Sprintf("%s:%d#%d", def.Backend, f.PEs(), i),
			fleet:       f,
			distributed: b.Distributed,
		})
	}
	s.loop.Add(1)
	go s.dispatchLoop()
	return s, nil
}

// tenantNameRE keeps tenant names exposition-safe: they become metric
// name suffixes and OpenMetrics label values.
var tenantNameRE = regexp.MustCompile(`^[A-Za-z0-9_-]+$`)

// Submit admits a job: parse/validate, resolve the circuit, check that
// some fleet can run it, price it against budgets, then enqueue under
// the tenant's backpressure limits. Returns the queued job's status.
func (s *Server) Submit(spec JobSpec) (JobStatus, error) {
	if spec.Tenant == "" {
		spec.Tenant = "default"
	}
	if !tenantNameRE.MatchString(spec.Tenant) {
		return JobStatus{}, submitErrf(400, "tenant %q: name must match [A-Za-z0-9_-]+", spec.Tenant)
	}
	c, err := spec.Load() // includes spec.Validate
	if err != nil {
		return JobStatus{}, &SubmitError{Status: 400, Msg: err.Error()}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return JobStatus{}, &SubmitError{Status: 503, Msg: "serve: server is draining"}
	}
	ten := s.tenantLocked(spec.Tenant)

	// A spec no fleet in the pool can ever satisfy is rejected now, not
	// queued forever.
	var compatible []*fleetState
	for _, fs := range s.fleets {
		if fleetCompatible(fs, &spec, c.NumQubits) {
			compatible = append(compatible, fs)
		}
	}
	if len(compatible) == 0 {
		return s.rejectLocked(spec.Tenant, submitErrf(400,
			"no fleet in the pool can run this job (backend=%q pes=%d qubits=%d; distributed fleets need 2^(n-1) >= PEs)",
			spec.Backend, spec.PEs, c.NumQubits))
	}

	// Price at the cheapest compatible placement: if even that exceeds
	// a budget the job can never run, which is a 413, not backpressure.
	est := EstimateJob(c, spec.TileBits, cheapestIsDistributed(compatible), spec.Shots)
	if s.opts.MaxBytes > 0 && est.Bytes > s.opts.MaxBytes {
		return s.rejectLocked(spec.Tenant, submitErrf(413,
			"predicted footprint %d bytes exceeds the server budget of %d bytes", est.Bytes, s.opts.MaxBytes))
	}
	if q := ten.quota.MaxResidentBytes; q > 0 && est.Bytes > q {
		return s.rejectLocked(spec.Tenant, submitErrf(413,
			"predicted footprint %d bytes exceeds tenant %s's resident-byte quota of %d", est.Bytes, spec.Tenant, q))
	}

	// Backpressure: per-tenant queue depth, then the global queue.
	if q := ten.quota.MaxQueued; q > 0 && ten.queued >= q {
		return s.rejectLocked(spec.Tenant, &SubmitError{Status: 429, RetryAfter: s.retryAfterLocked(),
			Msg: fmt.Sprintf("tenant %s already has %d job(s) queued (quota %d); retry later", spec.Tenant, ten.queued, q)})
	}
	if len(s.queue) >= s.opts.QueueDepth {
		return s.rejectLocked(spec.Tenant, &SubmitError{Status: 429, RetryAfter: s.retryAfterLocked(),
			Msg: fmt.Sprintf("job queue is full (%d waiting); retry later", len(s.queue))})
	}

	s.nextSeq++
	j := &job{
		id:       fmt.Sprintf("job-%06d", s.nextSeq),
		seq:      s.nextSeq,
		spec:     spec,
		name:     c.Name,
		circ:     c,
		est:      est,
		state:    StateQueued,
		enqueued: time.Now(),
	}
	s.jobs[j.id] = j
	s.queue = append(s.queue, j)
	ten.queued++
	s.countTenant(MetricJobsSubmitted, spec.Tenant)
	s.opts.Flight.Record(-1, EventJobSubmitted,
		fmt.Sprintf("%s tenant=%s circuit=%s", j.id, spec.Tenant, c.Name), est.Bytes)
	s.cond.Broadcast()
	return j.status(), nil
}

// rejectLocked accounts an admission failure and returns it.
func (s *Server) rejectLocked(tenant string, e *SubmitError) (JobStatus, error) {
	s.countTenant(MetricJobsRejected, tenant)
	s.opts.Flight.Record(-1, EventJobRejected,
		fmt.Sprintf("tenant=%s: %s", tenant, e.Msg), int64(e.Status))
	return JobStatus{}, e
}

// retryAfterLocked suggests a Retry-After for backpressure responses
// from the predicted runtime of what's ahead, clamped to [1, 30].
func (s *Server) retryAfterLocked() int {
	var ahead float64
	for _, fs := range s.fleets {
		if fs.busy != nil {
			ahead += fs.busy.est.Seconds
		}
	}
	for _, j := range s.queue {
		ahead += j.est.Seconds
	}
	secs := int(ahead) + 1
	if secs > 30 {
		secs = 30
	}
	return secs
}

// tenantLocked returns (creating if needed) the tenant's accounting.
func (s *Server) tenantLocked(name string) *tenantState {
	t := s.tenants[name]
	if t == nil {
		t = &tenantState{name: name, quota: s.opts.Tenants.Quota(name)}
		s.tenants[name] = t
	}
	return t
}

// fleetCompatible reports whether a fleet can run the spec at all:
// backend and PE hints match, and distributed fleets have at least one
// amplitude pair per PE (2^(n-1) >= PEs).
func fleetCompatible(fs *fleetState, spec *JobSpec, qubits int) bool {
	if spec.Backend != "" && spec.Backend != fs.fleet.Backend() {
		return false
	}
	if spec.PEs > 0 && spec.PEs != fs.fleet.PEs() {
		return false
	}
	if fs.distributed && 1<<uint(qubits-1) < fs.fleet.PEs() {
		return false
	}
	return true
}

// cheapestIsDistributed reports whether every compatible fleet is
// distributed (then the footprint must include exchange staging); one
// single-node placement makes the cheaper footprint achievable.
func cheapestIsDistributed(fleets []*fleetState) bool {
	for _, fs := range fleets {
		if !fs.distributed {
			return false
		}
	}
	return true
}

// dispatchLoop moves queued jobs onto idle fleets until Close.
func (s *Server) dispatchLoop() {
	defer s.loop.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed {
		progressed := false
		if !s.paused {
			progressed = s.tryDispatchLocked()
		}
		if !progressed {
			s.cond.Wait()
		}
	}
}

// tryDispatchLocked scans the queue in fair-share order and starts
// every job that has an idle compatible fleet (backfill: a blocked
// high-priority job does not stall lower ones with free fleets). For
// the highest-priority blocked job it may instead trigger a preemption.
// Returns whether any job was started.
func (s *Server) tryDispatchLocked() bool {
	progressed := false
	preemptTried := false
	for {
		order := s.dispatchOrderLocked()
		started := false
		for rank, j := range order {
			fs := s.placeLocked(j)
			if fs == nil {
				// The head of the line gets one shot at making room.
				if rank == 0 && !preemptTried {
					preemptTried = true
					s.maybePreemptForLocked(j)
				}
				continue
			}
			s.startJobLocked(j, fs)
			progressed, started = true, true
			break // queue changed; recompute the order
		}
		if !started {
			return progressed
		}
	}
}

// dispatchOrderLocked returns the runnable queued jobs in dispatch
// order: priority first, then the tenant with the least consumed
// virtual time (weighted fair share), then admission order.
func (s *Server) dispatchOrderLocked() []*job {
	var order []*job
	for _, j := range s.queue {
		if s.runnableLocked(j) {
			order = append(order, j)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		ja, jb := order[a], order[b]
		if ja.spec.Priority != jb.spec.Priority {
			return ja.spec.Priority > jb.spec.Priority
		}
		va := s.tenants[ja.spec.Tenant].servedVT
		vb := s.tenants[jb.spec.Tenant].servedVT
		if va != vb {
			return va < vb
		}
		return ja.seq < jb.seq
	})
	return order
}

// runnableLocked checks the tenant's concurrency and resident-byte
// quotas against its current usage.
func (s *Server) runnableLocked(j *job) bool {
	ten := s.tenants[j.spec.Tenant]
	if q := ten.quota.MaxConcurrent; q > 0 && ten.running >= q {
		return false
	}
	if q := ten.quota.MaxResidentBytes; q > 0 && ten.resident+j.est.Bytes > q {
		return false
	}
	return true
}

// placeLocked picks an idle compatible fleet for the job: the one that
// continues its checkpoint most cheaply (resumeCost), then the smallest.
func (s *Server) placeLocked(j *job) *fleetState {
	var best *fleetState
	bestCost := 0
	for _, fs := range s.fleets {
		if fs.busy != nil || !fleetCompatible(fs, &j.spec, j.circ.NumQubits) {
			continue
		}
		ten := s.tenants[j.spec.Tenant]
		bytes := FootprintBytes(j.circ.NumQubits, fs.distributed)
		if q := ten.quota.MaxResidentBytes; q > 0 && ten.resident+bytes > q {
			continue
		}
		if s.opts.MaxBytes > 0 && s.residentBytesLocked()+bytes > s.opts.MaxBytes {
			continue
		}
		if c := resumeCost(j, fs); best == nil || c < bestCost || c == bestCost && fs.fleet.PEs() < best.fleet.PEs() {
			best, bestCost = fs, c
		}
	}
	return best
}

// resumeCost ranks what j's prior work is worth on fleet fs. A checkpoint
// continues on any fleet of the backend that wrote it — core decides how
// — but loading shards in place on a fleet of the checkpoint's size is
// cheaper than resharding them onto another; on another backend the job
// starts over.
func resumeCost(j *job, fs *fleetState) int {
	switch {
	case j.ckptBackend != fs.fleet.Backend():
		return 2
	case fs.distributed && fs.fleet.PEs() != j.ckptPEs:
		return 1
	}
	return 0
}

// residentBytesLocked sums the predicted footprints of running jobs.
func (s *Server) residentBytesLocked() int64 {
	var b int64
	for _, t := range s.tenants {
		b += t.resident
	}
	return b
}

// maybePreemptForLocked makes room for a blocked high-priority job by
// preempting the lowest-priority strictly-lower running job on a
// compatible fleet: its stop latch is triggered, the run writes a
// final checkpoint at the next boundary, and the victim requeues with
// its checkpoint attached.
func (s *Server) maybePreemptForLocked(j *job) {
	var victim *fleetState
	for _, fs := range s.fleets {
		b := fs.busy
		if b == nil || b.preempting || !fleetCompatible(fs, &j.spec, j.circ.NumQubits) {
			continue
		}
		if b.spec.Priority >= j.spec.Priority {
			continue
		}
		if victim == nil || b.spec.Priority < victim.busy.spec.Priority {
			victim = fs
		}
	}
	if victim == nil {
		return
	}
	victim.busy.preempting = true
	victim.busy.stop.Trigger()
	s.opts.Flight.Record(-1, EventJobPreempt,
		fmt.Sprintf("%s preempted on %s for %s", victim.busy.id, victim.label, j.id), 0)
}

// startJobLocked moves a queued job onto a fleet and launches its run
// goroutine.
func (s *Server) startJobLocked(j *job, fs *fleetState) {
	ten := s.tenants[j.spec.Tenant]
	s.dequeueLocked(j)
	ten.queued--
	ten.running++
	ten.resident += FootprintBytes(j.circ.NumQubits, fs.distributed)
	if !j.charged {
		// Fair share: charge predicted runtime over weight once per job
		// (a preemption victim is not billed twice for the same work).
		ten.servedVT += j.est.Seconds / ten.quota.Weight
		j.charged = true
	}
	j.state = StateRunning
	j.started = time.Now()
	j.fleet = fs.label
	j.stop = &core.StopLatch{}
	j.preempting = false
	fs.busy = j
	s.opts.Flight.Record(-1, EventJobDispatch,
		fmt.Sprintf("%s -> %s (attempt=%d)", j.id, fs.label, j.preemptions), 0)

	s.running.Add(1)
	go s.runJob(j, fs)
}

// dequeueLocked removes j from the waiting queue.
func (s *Server) dequeueLocked(j *job) {
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

// runJob executes one dispatched job on its fleet and folds the
// outcome back into the job table. Runs on its own goroutine; the
// fleet itself serializes executions.
func (s *Server) runJob(j *job, fs *fleetState) {
	defer s.running.Done()

	// Snapshot inputs before running (the job record is shared).
	s.mu.Lock()
	spec := j.spec
	circ := j.circ
	attempt := j.preemptions
	var resume string
	if j.ckptBackend == fs.fleet.Backend() {
		resume = j.ckptDir // on this fleet's size or resharded, core's call
	}
	stop := j.stop
	tenant := spec.Tenant
	s.mu.Unlock()

	jc := spec.coreJob()
	jc.Plans = s.plans.View(tenant)
	jc.Stop = stop
	jc.CheckpointEvery = s.opts.CheckpointEvery
	ckdir := filepath.Join(s.opts.WorkDir, j.id, fmt.Sprintf("attempt-%d", attempt))
	jc.CheckpointDir = ckdir
	jc.Resume = resume

	res, err := fs.fleet.Run(circ, jc)
	var shots map[string]int
	if err == nil && spec.Shots > 0 {
		var counts map[uint64]int
		if counts, err = fs.fleet.RunShots(circ, jc, spec.Shots); err == nil {
			shots = core.ShotCounts(circ, counts)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	fs.busy = nil
	ten := s.tenants[tenant]
	ten.running--
	ten.resident -= FootprintBytes(circ.NumQubits, fs.distributed)

	switch {
	case err == nil:
		j.finish(StateDone, "")
		j.finalize(res, shots, s.opts.StateQubitLimit)
		s.keepStateLocked(j)
		s.countTenant(MetricJobsCompleted, tenant)
		s.opts.Flight.Record(-1, EventJobDone, fmt.Sprintf("%s on %s", j.id, fs.label), res.Elapsed.Nanoseconds())
	case isInterrupted(err) && j.cancelAsked:
		j.finish(StateCanceled, "canceled while running")
		s.countTenant(MetricJobsCanceled, tenant)
	case isInterrupted(err):
		// Preempted: requeue with whatever checkpoint the stop wrote.
		j.state = StateQueued
		j.started = time.Time{}
		j.preemptions++
		j.stop = nil
		j.preempting = false
		if _, m, rerr := ckpt.Resolve(ckdir); rerr == nil {
			j.ckptDir = ckdir
			j.ckptBackend = fs.fleet.Backend()
			j.ckptPEs = m.PEs
		} else {
			// Stopped before any boundary: no checkpoint, restart fresh.
			j.ckptDir, j.ckptBackend, j.ckptPEs = "", "", 0
		}
		s.queue = append(s.queue, j)
		ten.queued++
		s.countTenant(MetricJobsPreempted, tenant)
	default:
		j.finish(StateFailed, err.Error())
		s.countTenant(MetricJobsFailed, tenant)
		s.opts.Flight.Record(-1, EventJobFailed, fmt.Sprintf("%s: %v", j.id, err), 0)
	}
	s.cond.Broadcast()
}

// finalize stores a completed job's outputs: shot counts, and the
// state vector when requested and within the retention limit.
func (j *job) finalize(res *core.Result, counts map[string]int, qubitLimit int) {
	j.counts = counts
	if !j.spec.ReturnState || res.State == nil || res.State.N > qubitLimit {
		res.State = nil
	}
	j.result = res
}

func isInterrupted(err error) bool {
	return errors.Is(err, core.ErrInterrupted)
}

// Cancel stops a job: queued jobs leave the queue; running jobs are
// interrupted through their stop latch and land in canceled when the
// run unwinds. Terminal jobs are left alone (reported as false).
func (s *Server) Cancel(id string) (JobStatus, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobStatus{}, false, fmt.Errorf("no such job %s", id)
	}
	switch j.state {
	case StateQueued:
		s.dequeueLocked(j)
		s.tenants[j.spec.Tenant].queued--
		j.finish(StateCanceled, "canceled while queued")
		s.countTenant(MetricJobsCanceled, j.spec.Tenant)
		s.cond.Broadcast()
		return j.status(), true, nil
	case StateRunning:
		j.cancelAsked = true
		j.stop.Trigger()
		return j.status(), true, nil
	default:
		return j.status(), false, nil
	}
}

// Job returns a job's status.
func (s *Server) Job(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobStatus{}, fmt.Errorf("no such job %s", id)
	}
	return j.status(), nil
}

// ErrStateGone marks a state the server kept once and no longer does:
// a fetch took it over, or it was evicted unfetched.
var ErrStateGone = errors.New("state no longer kept")

// JobResultState returns a done job's retained state vector (an error
// when not retained or not finished; one wrapping ErrStateGone when it
// was retained and is not any more). It leaves the state in place:
// GET /v1/jobs/{id}/state is what hands it over.
func (s *Server) JobResultState(id string) (*statevec.State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.keptLocked(id)
	if err != nil {
		return nil, err
	}
	return j.result.State, nil
}

// keptLocked returns the done job id whose state is kept, or why not.
func (s *Server) keptLocked(id string) (*job, error) {
	j := s.jobs[id]
	if j == nil {
		return nil, fmt.Errorf("no such job %s", id)
	}
	if j.state != StateDone {
		return nil, fmt.Errorf("job %s is %s, not done", id, j.state)
	}
	if j.stateGone != "" {
		return nil, fmt.Errorf("job %s: %w: %s", id, ErrStateGone, j.stateGone)
	}
	if j.result == nil || j.result.State == nil {
		return nil, fmt.Errorf("job %s did not retain its state (set return_state and stay within the qubit limit)", id)
	}
	return j, nil
}

// takeState starts handing job id's state over to one fetch: until
// handOver ends it, every other fetch finds the state gone, so a client
// that has read it and fetches again never receives it twice.
func (s *Server) takeState(id string) (*statevec.State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.keptLocked(id)
	if err != nil {
		return nil, err
	}
	if j.handing {
		return nil, fmt.Errorf("job %s: %w: being handed over to another fetch", id, ErrStateGone)
	}
	j.handing = true
	return j.result.State, nil
}

// keepStateLocked enters a just-finished job's state into the result
// store, then evicts the oldest-finished unfetched states until the
// store fits its budget, FootprintBytes(StateQubitLimit, false): no
// state over the limit is kept, so the newest always stays.
func (s *Server) keepStateLocked(j *job) {
	if j.result.State == nil {
		return
	}
	j.kept = s.kept.PushBack(j)
	s.keptBytes += stateBytes(j.result.State)
	budget := FootprintBytes(s.opts.StateQubitLimit, false)
	for s.keptBytes > budget {
		s.dropStateLocked(s.kept.Front().Value.(*job),
			fmt.Sprintf("evicted unfetched: the server keeps the newest unfetched states within %d bytes", budget))
	}
}

// handOver ends the hand-over takeState began: once the fetch has
// written sv in full the client holds it and the server drops its copy
// (unless it was evicted meanwhile); a failed write keeps it for the
// next fetch.
func (s *Server) handOver(id string, sv *statevec.State, written bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	j.handing = false
	if written && j.result.State == sv {
		s.dropStateLocked(j, "handed over to an earlier fetch")
	}
}

// dropStateLocked removes a kept state from the store, recording why
// later fetches find it gone.
func (s *Server) dropStateLocked(j *job, why string) {
	s.kept.Remove(j.kept)
	s.keptBytes -= stateBytes(j.result.State)
	j.kept, j.result.State, j.stateGone = nil, nil, why
}

// stateBytes is the amplitude memory a kept state holds.
func stateBytes(sv *statevec.State) int64 { return FootprintBytes(sv.N, false) }

// Jobs lists job statuses, newest first, optionally filtered by tenant.
func (s *Server) Jobs(tenant string) []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		if tenant != "" && j.spec.Tenant != tenant {
			continue
		}
		out = append(out, j.status())
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID > out[b].ID })
	return out
}

// TenantStatus is the wire form of a tenant's quota and usage.
type TenantStatus struct {
	Name          string      `json:"name"`
	Quota         TenantQuota `json:"quota"`
	Running       int         `json:"running"`
	Queued        int         `json:"queued"`
	ResidentBytes int64       `json:"resident_bytes"`
	ServedVT      float64     `json:"served_vt"`
}

// Tenants lists the tenants seen so far with their quotas and usage.
func (s *Server) Tenants() []TenantStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TenantStatus, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, TenantStatus{
			Name: t.name, Quota: t.quota, Running: t.running,
			Queued: t.queued, ResidentBytes: t.resident, ServedVT: t.servedVT,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// PlanCacheStats exposes the shared plan cache's counters.
func (s *Server) PlanCacheStats() compile.CacheStats { return s.plans.Stats() }

// countTenant bumps both the service-wide and the per-tenant counter
// of a dotted metric family.
func (s *Server) countTenant(name, tenant string) {
	m := s.opts.Metrics
	m.Counter(name).Add(1)
	m.Counter(name + "." + tenant).Add(1)
}

// RefreshMetrics stamps scrape-time gauges: queue and fleet occupancy,
// per-tenant usage, and the shared plan cache's attribution counters.
// Wire it as the obs.Mux refresh hook.
func (s *Server) RefreshMetrics(m *obs.Metrics) {
	if m == nil {
		return
	}
	st := s.plans.Stats()
	m.Gauge(MetricPlanCacheHits).Set(float64(st.Hits))
	m.Gauge(MetricPlanCacheMisses).Set(float64(st.Misses))
	m.Gauge(MetricPlanCacheCrossHits).Set(float64(st.CrossLabelHits))
	m.Gauge(MetricPlanCacheEntries).Set(float64(st.Entries))
	for label, ls := range s.plans.StatsByLabel() {
		m.Gauge(MetricPlanCacheTenantHit + "." + label).Set(float64(ls.Hits))
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	m.Gauge(MetricQueueDepth).Set(float64(len(s.queue)))
	busy, running := 0, 0
	for _, fs := range s.fleets {
		if fs.busy != nil {
			busy++
		}
	}
	for _, t := range s.tenants {
		running += t.running
		m.Gauge(MetricTenantResidentBytes + "." + t.name).Set(float64(t.resident))
		m.Gauge(MetricTenantQueued + "." + t.name).Set(float64(t.queued))
		m.Gauge(MetricTenantServedVT + "." + t.name).Set(t.servedVT)
	}
	m.Gauge(MetricFleetsBusy).Set(float64(busy))
	m.Gauge(MetricFleets).Set(float64(len(s.fleets)))
	m.Gauge(MetricJobsRunning).Set(float64(running))
}

// Close drains the server: submissions are refused, queued jobs are
// canceled, running jobs are interrupted at their next checkpoint
// boundary, and the fleets are released.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, j := range s.queue {
		j.finish(StateCanceled, "server shutting down")
		s.tenants[j.spec.Tenant].queued--
	}
	s.queue = nil
	for _, fs := range s.fleets {
		if fs.busy != nil {
			fs.busy.cancelAsked = true
			fs.busy.stop.Trigger()
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	s.loop.Wait()
	s.running.Wait()
	for _, fs := range s.fleets {
		fs.fleet.Close()
	}
}

// Drain waits until no job is queued or running (for graceful
// shutdown that completes accepted work instead of interrupting it).
// Returns false if the timeout expires first.
func (s *Server) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		idle := len(s.queue) == 0
		for _, fs := range s.fleets {
			if fs.busy != nil {
				idle = false
			}
		}
		s.mu.Unlock()
		if idle {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}
