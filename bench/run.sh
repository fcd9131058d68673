#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json names this
# script as the command. Run it from the repository root:
#
#   bash bench/run.sh --workload stream_c16_1k --seed 1 --seconds 30 --trace 0
#
# With no --workload it runs every workload, each in a child process.
# Everything it writes stays inside the checkout: the build cache and the
# binary under .bench_build/, the traced run's span files under bench/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"

# bench/ is a module of its own ("alpha/bench", so it may import
# alpha/internal/...) and is not listed in the repository's go.work.
export GOWORK=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOCACHE="$build/gocache"
(cd "$here" && go build -o "$build/alpha-bench" .)
exec "$build/alpha-bench" "$@"
