#!/usr/bin/env bash
# Builds the OBDA serving benchmark from source and runs it, passing
# every argument through:
#
#   bash obdabench/run.sh --workload cold-plan --seed 1 --seconds 10 --trace 0
#   bash obdabench/run.sh --compare old.jsonl new.jsonl
#
# Run it from the repository root. The Go build and module caches, the
# binary and the trace files all live under .bench_build/ in the
# working directory, so nothing is read or written outside it.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd obdabench && go build -o "$out/obdabench" .)
exec "$out/obdabench" "$@"
