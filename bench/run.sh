#!/usr/bin/env bash
# Builds and runs the benchmark from a checkout of the repository, keeping
# everything the Go toolchain writes (build cache, temporary files,
# binaries) under .bench_build/ inside the checkout. BENCHMARK.json names
# this script as the benchmark's command; `go -C bench run .` is the same
# program with the toolchain's default cache.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
cd "$root"
go -C bench build -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
