// Command svload drives a running svserved with a mixed-tenant job
// burst and reports what the service did with it: per-tenant outcome
// counts, queue-wait and run-time latency quantiles, backpressure
// retries honored, and the shared plan cache's cross-tenant hit count
// scraped from /metrics.
//
// Exit codes: 0 when the burst completed and every -require-* assertion
// held, 1 when an assertion failed (failed jobs, missing cross-tenant
// cache hits), 2 for usage errors or an unreachable server.
//
// Example:
//
//	svload -addr localhost:9470 -tenants alice,bob -jobs 12 \
//	       -circuits bv_n14,cc_n12 -fuse -require-zero-failed \
//	       -require-cross-tenant-hits 1
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"svsim/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", "", "host:port of the svserved instance to drive (required)")
		tenantsFlag = flag.String("tenants", "alice,bob", "comma-separated tenant names; jobs round-robin across them")
		circuits    = flag.String("circuits", "bv_n14,cc_n12", "comma-separated suite workloads; jobs round-robin across them")
		jobs        = flag.Int("jobs", 8, "total jobs to submit")
		concurrency = flag.Int("concurrency", 4, "submitter goroutines")
		fuse        = flag.Bool("fuse", false, "submit jobs with the fusion pass on (exercises the shared plan cache)")
		schedName   = flag.String("sched", "", "gate schedule hint for the jobs (naive | lazy)")
		seed        = flag.Int64("seed", 1, "base measurement seed; job i uses seed+i")
		priorityTop = flag.Int("priority-spread", 0, "give every Nth job priority 10 to exercise preemption (0 = uniform priority)")
		timeout     = flag.Duration("timeout", 5*time.Minute, "overall deadline for the burst")
		maxRetries  = flag.Int("max-retries", 100, "429 retries per job before giving up")

		requireZeroFailed = flag.Bool("require-zero-failed", false, "exit 1 if any job ends failed or is dropped")
		requireCrossHits  = flag.Int("require-cross-tenant-hits", -1, "exit 1 unless /metrics shows at least N cross-tenant plan-cache hits (-1 = don't check)")
	)
	flag.Parse()

	if *addr == "" {
		usage("svload: -addr is required (the svserved host:port)")
	}
	tenants := splitList(*tenantsFlag)
	names := splitList(*circuits)
	if len(tenants) == 0 || len(names) == 0 || *jobs < 1 {
		usage("svload: need at least one tenant, one circuit, and -jobs >= 1")
	}
	base := "http://" + *addr
	if _, err := http.Get(base + "/healthz"); err != nil {
		fmt.Fprintln(os.Stderr, "svload: server unreachable:", err)
		os.Exit(2)
	}

	deadline := time.Now().Add(*timeout)
	type outcome struct {
		tenant   string
		status   serve.JobStatus
		retries  int
		err      error
		rtt      time.Duration // submit -> terminal state
		submitAt time.Time
	}
	results := make([]outcome, *jobs)
	var wg sync.WaitGroup
	sem := make(chan struct{}, *concurrency)
	for i := 0; i < *jobs; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			spec := serve.JobSpec{
				Tenant:  tenants[i%len(tenants)],
				Circuit: names[i%len(names)],
				Seed:    *seed + int64(i),
				Fuse:    *fuse,
				Sched:   *schedName,
			}
			if *priorityTop > 0 && i%*priorityTop == 0 {
				spec.Priority = 10
			}
			o := outcome{tenant: spec.Tenant, submitAt: time.Now()}
			id, retries, err := submitWithRetry(base, spec, *maxRetries, deadline)
			o.retries = retries
			if err != nil {
				o.err = err
				results[i] = o
				return
			}
			st, err := pollDone(base, id, deadline)
			o.status, o.err = st, err
			o.rtt = time.Since(o.submitAt)
			results[i] = o
		}(i)
	}
	wg.Wait()

	// Summarize.
	perTenant := map[string]map[serve.JobState]int{}
	var failed, dropped, retries, preemptions int
	var waits, runs []float64
	for _, o := range results {
		retries += o.retries
		if o.err != nil {
			dropped++
			fmt.Fprintf(os.Stderr, "svload: job dropped (%s): %v\n", o.tenant, o.err)
			continue
		}
		m := perTenant[o.tenant]
		if m == nil {
			m = map[serve.JobState]int{}
			perTenant[o.tenant] = m
		}
		m[o.status.State]++
		preemptions += o.status.Preemptions
		if o.status.State == serve.StateFailed {
			failed++
			fmt.Fprintf(os.Stderr, "svload: job %s failed: %s\n", o.status.ID, o.status.Detail)
		}
		waits = append(waits, o.status.WaitSeconds)
		runs = append(runs, o.status.RunSeconds)
	}

	fmt.Printf("svload: %d job(s) across %d tenant(s), %d circuit(s)\n", *jobs, len(tenants), len(names))
	tnames := make([]string, 0, len(perTenant))
	for tn := range perTenant {
		tnames = append(tnames, tn)
	}
	sort.Strings(tnames)
	for _, tn := range tnames {
		var parts []string
		for st, n := range perTenant[tn] {
			parts = append(parts, fmt.Sprintf("%s=%d", st, n))
		}
		sort.Strings(parts)
		fmt.Printf("  %-12s %s\n", tn, strings.Join(parts, " "))
	}
	fmt.Printf("  wait    p50=%.3fs p95=%.3fs\n", quantile(waits, 0.5), quantile(waits, 0.95))
	fmt.Printf("  run     p50=%.3fs p95=%.3fs\n", quantile(runs, 0.5), quantile(runs, 0.95))
	fmt.Printf("  backpressure retries honored: %d; preemptions: %d; dropped: %d; failed: %d\n",
		retries, preemptions, dropped, failed)

	crossHits := int64(-1)
	if v, err := scrapeGauge(base, "serve_plan_cache_cross_tenant_hits"); err == nil {
		crossHits = v
		fmt.Printf("  plan cache cross-tenant hits: %d\n", v)
	} else if *requireCrossHits >= 0 {
		fmt.Fprintln(os.Stderr, "svload: metrics scrape:", err)
		os.Exit(2)
	}

	code := 0
	if *requireZeroFailed && (failed > 0 || dropped > 0) {
		fmt.Fprintf(os.Stderr, "svload: REQUIREMENT FAILED: %d failed, %d dropped (want zero)\n", failed, dropped)
		code = 1
	}
	if *requireCrossHits >= 0 && crossHits < int64(*requireCrossHits) {
		fmt.Fprintf(os.Stderr, "svload: REQUIREMENT FAILED: cross-tenant plan-cache hits %d < %d\n", crossHits, *requireCrossHits)
		code = 1
	}
	os.Exit(code)
}

// submitWithRetry POSTs the spec, honoring 429 Retry-After backpressure
// until it is admitted or the retry budget/deadline runs out.
func submitWithRetry(base string, spec serve.JobSpec, maxRetries int, deadline time.Time) (id string, retries int, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", 0, err
	}
	for {
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return "", retries, err
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			var st serve.JobStatus
			if err := json.Unmarshal(data, &st); err != nil {
				return "", retries, err
			}
			return st.ID, retries, nil
		case http.StatusTooManyRequests:
			retries++
			if retries > maxRetries {
				return "", retries, fmt.Errorf("gave up after %d backpressure retries", retries)
			}
			wait := time.Second
			if ra, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && ra > 0 {
				wait = time.Duration(ra) * time.Second
			}
			// Cap the hint so a short burst doesn't sleep through its
			// deadline on a conservative server estimate.
			if wait > 2*time.Second {
				wait = 2 * time.Second
			}
			if time.Now().Add(wait).After(deadline) {
				return "", retries, fmt.Errorf("deadline exceeded during backpressure")
			}
			time.Sleep(wait)
		default:
			return "", retries, fmt.Errorf("submit rejected: %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
		}
	}
}

// pollDone polls a job until it reaches a terminal state.
func pollDone(base, id string, deadline time.Time) (serve.JobStatus, error) {
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			return serve.JobStatus{}, err
		}
		var st serve.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return serve.JobStatus{}, err
		}
		switch st.State {
		case serve.StateDone, serve.StateFailed, serve.StateCanceled:
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s still %s at deadline", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// scrapeGauge fetches /metrics and returns the named unlabeled sample.
func scrapeGauge(base, name string) (int64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return int64(v), nil
		}
	}
	return 0, fmt.Errorf("metric %s not found in exposition", name)
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	i := int(q * float64(len(ys)-1))
	return ys[i]
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, msg)
	flag.Usage()
	os.Exit(2)
}
