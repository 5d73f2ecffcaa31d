#!/usr/bin/env bash
# Builds the campaign benchmark and the ensembled server from the source
# tree this script sits in, then runs one benchmark invocation. Every
# build product, cache and run artifact stays under .bench_build/ at the
# repository root. Arguments are passed through to the benchmark:
#
#   bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 15 --trace 0
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
go build -o "$out/ensembled" ./cmd/ensembled
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -ensembled "$out/ensembled" -out "$out/runs" "$@"
