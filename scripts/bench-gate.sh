#!/usr/bin/env bash
# The regression gate: the process-level benchmark (bench/, BENCHMARK.json)
# on BASE_REF and on the checkout in $PWD, judged by `bench compare` against
# BENCHMARK.json's bounds and nothing else. Every workload BENCHMARK.json
# names runs for seeds 1-3 at 5 s on both sides, the side that goes first
# alternating per seed so neither always runs on the warmer host.
#
#   bash scripts/bench-gate.sh BASE_REF    # exit 0: no metric regressed
#                                          # exit 1: one did, or a run failed
#                                          # exit 2: the two sides cannot be compared
#
# Records, logs and the base tree land under .bench_build/gate/. Reproduce one
# gated number with the command the log shows, e.g.
#   bash bench/run.sh --workload fleet_rebalance --seed 1 --seconds 5 --trace 0
set -euo pipefail
[ $# -eq 1 ] || { echo "usage: bash scripts/bench-gate.sh BASE_REF" >&2; exit 2; }
head=$PWD gate=$PWD/.bench_build/gate base=$PWD/.bench_build/gate/base
# Both sides must run the same benchmark: a change to it is its own PR,
# gated against itself once accepted.
changed=$(git diff --name-only "$1" -- bench BENCHMARK.json)
[ -z "$changed" ] || { echo "bench-gate: $1 and the checkout disagree on:" $changed >&2; exit 2; }
workloads=$(jq -r '.workloads[].name' BENCHMARK.json)
rm -rf "$gate" && mkdir -p "$base"
git archive "$1" | tar -x -C "$base"
for seed in 1 2 3; do
  sides="base head"; [ $((seed % 2)) -eq 1 ] || sides="head base"
  for workload in $workloads; do
    for side in $sides; do
      echo "bench-gate: $side $workload seed $seed" >&2
      (cd "${!side}" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds 5 --trace 0 \
        --result "$gate/$side.jsonl") >>"$gate/$side.log" || { tail -n 3 "$gate/$side.log" >&2; exit 1; }
    done
  done
done
exec bash bench/run.sh compare "$gate/base.jsonl" "$gate/head.jsonl"
