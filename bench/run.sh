#!/usr/bin/env bash
# Builds svperf from source and runs it: the command BENCHMARK.json names.
# Run from the root of a checkout:
#
#   bash bench/run.sh --workload qft22_single --seed 1 --seconds 10 --trace 0
#
# A checkout holds no binary, so the first run builds one into bench/bin/;
# later runs find the build cache warm and `go build` returns in well under
# a second without compiling or linking. Everything the Go toolchain writes
# (build cache, module cache, its own config) is kept under bench/bin/ too,
# and its telemetry is switched off there, so that a run writes nothing
# outside the checkout and `go build` leaves no helper process behind.
# svperf itself starts none; its temporary files go under bench/out/.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
bin="$bench/bin"

mkdir -p "$bin/config/go/telemetry"
echo off > "$bin/config/go/telemetry/mode"
(
	cd "$bench"
	env XDG_CONFIG_HOME="$bin/config" GOCACHE="$bin/gocache" GOPATH="$bin/gopath" \
		GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$bin/svperf" ./cmd/svperf
)
cd "$(dirname "$bench")"
exec "$bin/svperf" "$@"
