#!/usr/bin/env bash
# Runs the repository benchmark the way its harness does, only briefly:
# the command BENCHMARK.json declares, once per workload it declares,
# untraced (--trace 0) and traced (--trace 1).  Prints each run's
# reconciliation line (traced runs) and last JSON line, and fails on the
# first non-zero exit, printing that run's whole output.
#
# Exit 1 from perfbench means a pass or a served job did not match its
# reference, a replay's counts were inconsistent, or (traced) the layers
# covered less than 90 % of the single-worker wall or the analysis median
# went negative.  Exit 2 means a failure before measuring.  This script
# runs perfbench; it never edits it.  Every run is 4 s at seed 1; for
# another length or seed, run perfbench directly.
set -euo pipefail
cd "$(dirname "$0")/.."

seconds=4
seed=1
command -v jq >/dev/null || { echo "FAIL: jq not found" >&2; exit 2; }
mapfile -t cmd < <(jq -r '.command[]' BENCHMARK.json)
mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
if (( ${#cmd[@]} == 0 || ${#workloads[@]} == 0 )); then
  echo "FAIL: BENCHMARK.json declares no command or no workloads" >&2
  exit 2
fi

out="$(mktemp)"
trap 'rm -f "$out"' EXIT

for workload in "${workloads[@]}"; do
  for trace in 0 1; do
    echo "perfbench: $workload, --trace $trace, --seed $seed, --seconds $seconds"
    status=0
    "${cmd[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" \
      --trace "$trace" >"$out" || status=$?
    grep -F '% attributed' "$out" || true
    tail -n 1 "$out"
    if (( status != 0 )); then
      echo "FAIL: $workload --trace $trace exited $status; its output:" >&2
      cat "$out" >&2
      exit "$status"
    fi
  done
done
echo "perfbench check: OK (${#workloads[@]} workloads, untraced and traced, all exited 0)"
