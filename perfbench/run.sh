#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload kv_read_zipf --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, data directories and trace files
# all stay under .bench_build/ in the current directory. The build needs
# the repository's module one level above perfbench/; without it the
# script fails before printing a result.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --data-root "$out" "$@"
