#!/bin/sh
# Repository check gate. It starts no server and backgrounds nothing, and
# it writes nothing into the working tree. Steps, in order:
#
#   gofmt        every Go file is formatted
#   go vet       the standard vet passes over every package
#   go build     every package and command compiles
#   go test      the full suite, which includes the repository's own vet
#                passes (tools/analyzers/obsguard and detguard, each
#                checking its engine packages in TestEnginePackagesClean)
#                and the in-process live-telemetry smoke
#                (cmd/spbench TestServeLiveTelemetry)
#   go test -race  the engine packages, the harness and the tools, plus
#                the live-telemetry smoke
#   benchmarks   every Go benchmark compiles and runs once
#   diff         the differential harness: every host-side arm against
#                the reference configuration over the full catalog
#
# Host speed is not gated here: `go run ./benchmark` measures it (see
# benchmark/README.md).
#
#   scripts/check.sh          # everything above
#
# Intended to be the single command CI runs.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test -timeout 5m ./...

echo "== go test -race (engine packages + harness + tools + telemetry smoke) =="
go test -race -timeout 5m ./internal/cpu/... ./internal/kernel/... ./internal/core/... ./internal/jit/... \
    ./internal/mem/... ./internal/bench/... ./internal/obs/... ./internal/artifact/... \
    ./internal/telemetry/... ./internal/sa/... ./internal/pin/... ./internal/tools/... ./tools/...
go test -race -timeout 5m -run '^TestServeLiveTelemetry$' ./cmd/spbench

echo "== benchmarks compile and run once =="
go test -timeout 5m -run='^$' -bench=. -benchtime=1x ./...

echo "== differential harness (every host-side arm vs the reference, full catalog) =="
go run ./cmd/spbench -exp diff -scale 0.02

echo "ok"
