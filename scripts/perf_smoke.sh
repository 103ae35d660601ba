#!/usr/bin/env bash
# Perf smoke: four short modisperf measurements, two of the serving
# layer, one of the UDF valuation route and one of the surrogate's
# refits, gated on the numbers that are stable at that length.
#
# modisperf exits non-zero when an op's skyline digest check or the
# SIGKILL durability check fails, and pipefail carries that exit through
# the pipe. Its result line (the last line of stdout) then goes through
# the gates in scripts/perf_smoke.jq:
#   serve-append  the memo kept answering the states an append did not
#                 touch, and the restart replayed the memo without
#                 re-running inference;
#   serve-warm    every job answered from the memo, no exact inference;
#   discover-udf  every valuation took the materialise-and-encode route;
#   engine-aging  the surrogate answered estimates, so its refit path
#                 ran (each op's digest is checked against a
#                 parallelism-1 rerun).
# About 60 s on two CPUs, most of it building modisd and modisperf.
set -euo pipefail
cd "$(dirname "$0")/.."
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# measure <workload> <seconds>: one traced run, then its gates.
measure() {
  bash modisperf/run.sh --workload "$1" --seed 1 --seconds "$2" --trace 1 | tee "$out/$1.txt"
  tail -n 1 "$out/$1.txt" | jq -r --arg workload "$1" -f scripts/perf_smoke.jq
}

measure serve-append 4
measure serve-warm 3
measure discover-udf 3
measure engine-aging 3
echo "perf smoke passed" >&2
