#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#   bash perfbench/run.sh --workload tick-path --seed 1 --seconds 20 --trace 0
# Every build product (binary, Go build cache) stays under .bench_build.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
