#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#   bash bench/run.sh --workload local_small --seed 1 --seconds 15 --trace 0
# Everything the build and the run write — Go's build cache and
# temporary files, the binary, the WAL directories, the span files —
# stays under .bench_build at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$build/bench" . >&2
exec "$build/bench" "$@"
