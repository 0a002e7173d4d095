#!/usr/bin/env bash
# Benchmark smoke: each workload for one second at seeds 1, 3 and 5, untraced.
# ci/check_bench_smoke.py fails on a run whose outputs are not correct or that
# failed an operation, and at seed 1 on an output_digest other than the newest
# BENCH_*.json's; seeds 3 and 5 check the outputs on items other than those of
# the recorded runs.  The first failing run ends the script with its status.
# Run it from the root of the repository: bash ci/bench_smoke.sh
set -eo pipefail
for seed in 1 3 5; do
  for w in verdict-sweep driver-walk chart-batch; do
    python3 bench/run.py --workload "$w" --seed "$seed" --seconds 1 --trace 0 \
      | python3 ci/check_bench_smoke.py "$w" "$seed"
  done
done
