#!/usr/bin/env bash
# Builds the system benchmark from the checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash sysbench/run.sh --workload rest-small --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary)
# and the span files of traced runs stay under .bench_build/ in the
# checkout. A checkout without the repository's Go sources fails to build,
# so the script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off
(cd sysbench && go build -o "$out/sysbench" .)
exec "$out/sysbench" -out "$out" "$@"
