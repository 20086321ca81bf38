#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run in and runs it
# with the given arguments, e.g. from the repository root:
#
#   bash perfbench/run.sh --workload paper-flat --seed 1 --seconds 25 --trace 0
#
# Everything the build and the runs write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the binary,
# the identity ledger and the span dumps. Fails without output when the
# repository sources are missing.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/go-tmp" "$build/config"

export GOCACHE=$build/go-cache GOMODCACHE=$build/go-mod GOPATH=$build/go-path \
	GOTMPDIR=$build/go-tmp XDG_CONFIG_HOME=$build/config \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --state "$build/perfbench-state" "$@"
