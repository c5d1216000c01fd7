#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 10 --trace 0
#
# Run from the root of a checkout. Everything the build and the run write
# (Go build cache, temporary files, binary, CPU profiles, span dumps,
# checkpoint directories) goes under $CARGO_TARGET_DIR, or .bench_build when
# it is unset.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/out" "$build/config" "$build/cache"

export GOCACHE=$build/gocache
export GOTMPDIR=$build/tmp
export GOTOOLCHAIN=local
export GOENV=off
export GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config
export XDG_CACHE_HOME=$build/cache

(cd "$root/perfbench" && go build -o "$build/tlcperf" .) >&2
exec "$build/tlcperf" -refs "$root/perfbench/refs" -out "$build/out" "$@"
