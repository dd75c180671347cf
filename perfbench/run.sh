#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it, passing every argument through. Run it from the checkout root:
#
#   bash perfbench/run.sh --workload refine --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and every file a run writes stay under
# .bench_build in the checkout.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" "$@"
