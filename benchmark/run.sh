#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it from the repository
# root. Everything the build writes (Go's build cache, module cache and
# telemetry counters, the binary) stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomodcache" \
	XDG_CONFIG_HOME="$root/.bench_build/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod
go build -C benchmark -o "$root/.bench_build/gpo-benchmark" .
exec "$root/.bench_build/gpo-benchmark" "$@"
