#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload ch_olap --seed 1 --seconds 12 --trace 0
#
# Build outputs, Go's build cache, databases, spans and result files all
# live under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/e2ebench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --out "$out" "$@"
