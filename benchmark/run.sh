#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#	bash benchmark/run.sh --workload lookup-zipf --seed 1 --seconds 10 --trace 0
#	bash benchmark/run.sh steadiness --runs 10
#
# Everything the build and the runs write (Go build cache, binary, generated
# inputs, WAL directories, span files) stays under $CARGO_TARGET_DIR, or
# .bench_build when that is unset, inside the current directory.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOWORK=off
export GOTOOLCHAIN=local

go -C "$root/benchmark" build -o "$build/dlbench" .
export DLBENCH_WORK="$build"
exec "$build/dlbench" "$@"
