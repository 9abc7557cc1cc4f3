#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# root of a checkout; every argument is passed to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and the traced run's Chrome trace all
# stay under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" GOPATH="$build/gopath"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
