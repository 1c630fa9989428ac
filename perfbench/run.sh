#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Every build artifact, cache and temporary file stays under .bench_build
# in the checkout. Usage (from the repository root):
#
#   bash perfbench/run.sh --workload mpi-noise --seed 1 --seconds 12 --trace 0
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-mod=mod GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --root "$root" "$@"
