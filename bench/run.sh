#!/usr/bin/env bash
# Builds the harness into .bench_build/ (Go build cache and the go
# command's telemetry counters included, so nothing is written outside
# the checkout) and runs it from the checkout root with the arguments
# given.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$build/rqpbench" .
exec "$build/rqpbench" "$@"
