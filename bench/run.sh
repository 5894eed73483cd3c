#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source inside the
# checkout, then run it. Everything the build writes — the go build cache
# included — stays under .bench_build/ in the checkout.
#
#   bash bench/run.sh --workload burst_backlog --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh compare base.jsonl candidate.jsonl
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -buildvcs=false -o "$build/bench" ./bench
exec "$build/bench" "$@"
