# svsim — Go reproduction of SV-Sim (SC '21). Stdlib-only; offline.

GO ?= go

.PHONY: all build vet test perf-check race bench obs evaluate examples fuzz lint doccheck serve loadtest clean

# Service address shared by the serve and loadtest targets.
SERVE_ADDR ?= localhost:9470

all: build vet test

build:
	$(GO) build ./...

# asmdecl checks statevec's run_amd64.s; the arm64 pass keeps the
# non-amd64 side of the AVX2 run bodies (run_other.go) compiling.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/statevec

# vet plus staticcheck's correctness analyzers (SA*), matching CI's lint
# job. Requires staticcheck on PATH (CI installs it; the module itself
# stays stdlib-only).
lint: vet
	staticcheck -checks 'SA*' ./...

test:
	$(GO) test ./...

# bench/ (svperf, the wall-clock benchmark) is a nested module that
# `./...` from the root never sees: vet and test it against the current
# internal/ API (runs in CI's test job).
perf-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Documentation gate: every exported identifier in the packages the
# design docs lean on must carry a godoc comment (runs in CI's lint job).
doccheck:
	$(GO) run ./cmd/doccheck internal/compile internal/sched internal/statevec internal/obs internal/ham

race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchmem .

# Regenerate the paper's full evaluation (tables + figures) to stdout.
evaluate:
	$(GO) run ./cmd/svbench -exp all

# The observability artifact set of one distributed run, in obs/: a
# per-gate timeline (trace.json; open it in Perfetto, ui.perfetto.dev, or
# chrome://tracing), an OpenMetrics dump (metrics.om), a phase-attribution
# report (phases.json, summary printed to the terminal) and the flight
# recorder trail (flight.jsonl). Add -obs-listen ADDR to scrape /metrics
# live as well.
obs:
	$(GO) run ./cmd/svsim -circuit qft_n15 -backend scale-out -pes 8 -sched lazy \
		-obs-dir obs

# Boot the multi-tenant service with the example quota table and a
# two-fleet pool. Drive it from another terminal with `make loadtest`,
# `svsim -submit $(SERVE_ADDR)`, or curl (see README "Running as a
# service"). Ctrl-C drains: running jobs checkpoint at their next
# boundary.
serve:
	$(GO) run ./cmd/svserved -listen $(SERVE_ADDR) \
		-fleet-pool scale-out:4,scale-out:2 \
		-tenant-config examples/tenants.json

# Mixed-tenant burst against a running `make serve` daemon: exercises
# backpressure (429 + Retry-After), priority preemption, and the shared
# plan cache, then fails unless zero jobs failed and at least one
# cross-tenant plan-cache hit shows up in /metrics.
loadtest:
	$(GO) run ./cmd/svload -addr $(SERVE_ADDR) \
		-tenants alice,bob -circuits bv_n14,cc_n12,qft_n15 \
		-jobs 12 -concurrency 4 -fuse -sched lazy -priority-spread 4 \
		-require-zero-failed -require-cross-tenant-hits 1

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/vqe_h2
	$(GO) run ./examples/qnn_powergrid
	$(GO) run ./examples/scaleout
	$(GO) run ./examples/qaoa_maxcut
	$(GO) run ./examples/noise_validation

fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/qasm

clean:
	$(GO) clean ./...
