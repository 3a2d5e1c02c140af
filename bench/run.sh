#!/usr/bin/env bash
# Driver entry point named by BENCHMARK.json: builds the harness from
# source with every build artefact inside the checkout (.bench_build),
# then runs it with the driver's arguments
# (--workload W --seed N --seconds S --trace 0|1).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomod" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go -C "$root/bench" build -o "$build/quicsand-bench" .
exec "$build/quicsand-bench" -out "$root/bench/out" -spec "$root/BENCHMARK.json" "$@"
