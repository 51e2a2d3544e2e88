#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
#
#   bash perfbench/run.sh --workload crawl --seed 1 --seconds 5 --trace 0
#
# Run from the repository root. The binary, the Go build cache and the
# durable directories of a run live under .bench_build/ at the root; the
# last line of standard output is the JSON result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/perfbench
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
export GOCACHE="$root/.bench_build/gocache"
(cd perfbench && go build -o ../.bench_build/perfbench/perfbench .) >&2
exec .bench_build/perfbench/perfbench "$@"
