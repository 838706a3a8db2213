#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root; arguments go to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload chase-b1 --seed 42 --seconds 25 --trace 0
#
# Build outputs and the Go caches stay inside the checkout, under
# $CARGO_TARGET_DIR when it is set and .bench_build otherwise.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$PWD/$out ;; esac
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath \
	GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config GOENV=off GOTOOLCHAIN=local \
	GOPROXY=off GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
