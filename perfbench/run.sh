#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload mine --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh compare --base <dir> --change <dir>
#
# Every build artefact (binary, Go build cache, telemetry) stays under
# $CARGO_TARGET_DIR (default .bench_build) in the working directory.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/config"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off

(cd perfbench && go build -o "$build/perfbench-bin" .) >&2
exec "$build/perfbench-bin" "$@"
