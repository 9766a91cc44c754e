// Command svserved runs the simulator as a long-running multi-tenant
// service: an HTTP API accepts circuit submissions (built-in suite
// workloads or inline OpenQASM 2.0), admission control prices each job's
// memory footprint before it is queued, per-tenant quotas and weighted
// fair share govern the bounded queue, and a pool of PE fleets executes
// the jobs — preempting lower-priority work through the checkpoint layer
// and resuming it elastically on whatever fleet frees up.
//
// Examples:
//
//	svserved -listen localhost:9470 -fleet-pool scale-out:4,scale-out:2
//	svserved -listen :0 -fleet-pool threaded:8 -tenant-config tenants.json
//	svserved -listen localhost:9470 -fleet-pool scale-out:4 -max-bytes 2147483648
//
// Endpoints: POST/GET /v1/jobs, GET /v1/jobs/{id}[/state], DELETE
// /v1/jobs/{id}, GET /v1/tenants, /healthz, plus the observability
// surface (/metrics OpenMetrics exposition with per-tenant job and
// plan-cache attribution, /debug/flight, /debug/pprof).
//
// SIGINT/SIGTERM drain gracefully: the listener stops accepting, queued
// jobs are canceled, and running jobs checkpoint at their next boundary.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"svsim/internal/cliutil"
	"svsim/internal/obs"
	"svsim/internal/serve"
)

func main() {
	var (
		listen       = flag.String("listen", "localhost:9470", "host:port the service accepts jobs on (:0 picks an ephemeral port)")
		fleetPool    = flag.String("fleet-pool", "", "execution pool: comma-separated backend:pes entries, e.g. scale-out:4,scale-out:2,threaded:8")
		queueDepth   = flag.Int("queue-depth", 64, "bounded job queue capacity; past it submissions get 429 + Retry-After")
		tenantConfig = flag.String("tenant-config", "", "JSON tenant quota table (default: every tenant unlimited, weight 1)")
		workDir      = flag.String("workdir", "", "directory for per-job preemption checkpoints (default: a temp dir)")
		maxBytes     = flag.Int64("max-bytes", 0, "global footprint budget in bytes; a job predicted over it is rejected with 413 (0 = unlimited)")
		ckptEvery    = flag.Int("checkpoint-every", 16, "preemption granularity: running jobs checkpoint (and vote on stop requests) every N schedule steps")
		stateQubits  = flag.Int("state-qubit-limit", 26, "largest qubit count for which return_state jobs retain their final state vector")
	)
	flag.Parse()

	if err := cliutil.ValidateServe(*listen, *queueDepth, *tenantConfig, *fleetPool); err != nil {
		fatal(err)
	}
	specs, err := cliutil.ParseFleetPool(*fleetPool)
	if err != nil {
		fatal(err)
	}
	var tenants *serve.TenantConfig
	if *tenantConfig != "" {
		tenants, err = serve.LoadTenantConfig(*tenantConfig)
		if err != nil {
			fatal(err)
		}
	}
	if *workDir != "" {
		if err := cliutil.EnsureWritableDir("-workdir", *workDir); err != nil {
			fatal(err)
		}
	}

	opts := serve.Options{
		QueueDepth:      *queueDepth,
		Tenants:         tenants,
		MaxBytes:        *maxBytes,
		WorkDir:         *workDir,
		CheckpointEvery: *ckptEvery,
		StateQubitLimit: *stateQubits,
		Metrics:         obs.NewMetrics(),
		Flight:          obs.NewFlightRecorder(obs.DefaultFlightCap),
	}
	var pool []string
	for _, fs := range specs {
		opts.Fleets = append(opts.Fleets, serve.FleetDef{Backend: fs.Backend, PEs: fs.PEs})
		pool = append(pool, fmt.Sprintf("%s:%d", fs.Backend, fs.PEs))
	}

	s, err := serve.New(opts)
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	fmt.Printf("svserved: listening on http://%s (pool: %s, queue depth %d)\n",
		ln.Addr(), strings.Join(pool, ", "), *queueDepth)

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "svserved: %v: draining (running jobs checkpoint at the next boundary; signal again to abort)\n", got)
		go func() {
			<-sig
			os.Exit(1)
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		srv.Shutdown(ctx) //nolint:errcheck // best-effort listener drain
		cancel()
		s.Close()
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			s.Close()
			fatal(err)
		}
		s.Close()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "svserved:", err)
	os.Exit(1)
}
