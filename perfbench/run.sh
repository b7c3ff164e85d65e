#!/usr/bin/env bash
# Builds reputationd and the benchmark from the checkout this is run
# in, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload lookup-hot --seed 1 --seconds 26 --trace 0
#
# Everything it builds or writes stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$build/bin/reputationd" ./cmd/reputationd >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -daemon "$build/bin/reputationd" -work "$build/work" "$@"
