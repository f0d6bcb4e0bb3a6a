#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments (see BENCHMARK.json and perfbench/README.md). Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload answer-sliding --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the binary and the run's WAL and span
# files all live under the build directory ($CARGO_TARGET_DIR when set,
# .bench_build otherwise), inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod"

export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOMODCACHE=$build/gomod
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -spec "$root/BENCHMARK.json" -workdir "$build/perfbench-run" "$@"
