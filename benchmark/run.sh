#!/bin/sh
# Harness entry point (BENCHMARK.json "command"): build the benchmark from
# source inside the checkout, then run it with the harness's arguments.
#
#   sh benchmark/run.sh --workload native --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes — build cache, module path, its own
# config and telemetry — is redirected under .bench_build/ in the
# checkout, so a run reads and writes nothing outside it. People can skip
# the script: `go run ./benchmark` is the same program.
set -eu
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local
unset XDG_CACHE_HOME XDG_CONFIG_HOME GOBIN
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
