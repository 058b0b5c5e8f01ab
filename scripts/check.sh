#!/bin/sh
# Repository check gate: static checks, the full test suite, the
# race-detector pass over the parallel experiment harness, the
# differential harness over the full catalog and the live-telemetry
# smoke. It writes nothing into the working tree. Host speed is not
# gated here: `go run ./benchmark` measures it (see benchmark/README.md).
#
#   scripts/check.sh          # everything below
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

echo "== obsguard (obs zero-cost nil-guard invariant) =="
go run ./tools/analyzers/cmd/obsguard internal/pin internal/cpu internal/kernel internal/core internal/artifact internal/jit internal/telemetry

echo "== detguard (engine determinism: map ranges, time.Now, math/rand) =="
go run ./tools/analyzers/cmd/detguard internal/cpu internal/mem internal/pin internal/jit internal/core internal/sa internal/kernel

echo "== go build =="
go build ./...

echo "== go test =="
go test -timeout 5m ./...

echo "== go test -race (engine packages + harness + tools) =="
go test -race -timeout 5m ./internal/cpu/... ./internal/kernel/... ./internal/core/... ./internal/jit/... \
    ./internal/mem/... ./internal/bench/... ./internal/obs/... ./internal/artifact/... \
    ./internal/telemetry/... ./internal/sa/... ./internal/pin/... ./internal/tools/... ./tools/...

echo "== benchmarks compile and run once =="
go test -timeout 5m -run='^$' -bench=. -benchtime=1x ./...

echo "== differential harness (every host-side arm vs the reference, full catalog) =="
go run ./cmd/spbench -exp diff -scale 0.02

echo "== live telemetry smoke (mid-run /healthz /metrics /status /trace) =="
go run ./tools/cmd/telsmoke -- \
    go run ./cmd/spbench -exp fig3 -scale 1 -benchmarks gzip,gcc,mgrid -serve 127.0.0.1:0

echo "ok"
