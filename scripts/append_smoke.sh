#!/usr/bin/env bash
# Append smoke: streaming discovery against one modisd node, end to end.
#
# Drives the versioned-append lifecycle by hand: submit a job,
# resubmit it to pin the warm-memo baseline (an identical rerun
# valuates nothing), POST a row batch to the workload, and assert the
# table version moved everywhere it is reported (append response,
# catalog, /metrics) and that the post-append resubmission actually
# re-ran — nonzero valuated against the grown table, then back to a
# full memo answer on the next identical run. Appends mixed into
# closed-loop load are measured by modisperf's serve-append workload
# (scripts/perf_smoke.sh). See docs/serving.md, "Streaming appends".
set -euo pipefail

MODISD=${MODISD:-/tmp/modisd}
ADDR=${ADDR:-127.0.0.1:9965}
PIDS=()

# cleanup stops every process the script started and waits for it:
# after SIGTERM modisd drains for up to its -drain (30 s by default),
# so without the wait a daemon could outlive a passing smoke. Whatever
# still runs after about 10 s is killed.
cleanup() {
  local pid deadline=$((SECONDS + 10))
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  for pid in "${PIDS[@]:-}"; do
    while kill -0 "$pid" 2>/dev/null && [ "$SECONDS" -lt "$deadline" ]; do sleep 0.1; done
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  done
}
trap cleanup EXIT

"$MODISD" -addr "$ADDR" -tasks t3 -rows 120 &
PIDS+=($!)

for _ in $(seq 1 50); do
  curl -sf "http://$ADDR/healthz" >/dev/null && break
  sleep 0.2
done
curl -sf "http://$ADDR/healthz" >/dev/null

# submit_wait <out-file>: one fixed t3 search, polled to "done".
SUBMIT_BODY='{"workload":"t3","algorithm":"bi","options":{"epsilon":0.15,"max_level":2,"seed":2},"timeout_ms":120000}'
submit_wait() {
  local out=$1 job
  job=$(curl -sf -X POST "http://$ADDR/v1/jobs" -d "$SUBMIT_BODY" |
    grep -o '"job_id":"[^"]*"' | head -1 | cut -d'"' -f4)
  test -n "$job"
  for _ in $(seq 1 300); do
    curl -sf -o "$out" "http://$ADDR/v1/jobs/$job"
    grep -q '"status":"done"' "$out" && return 0
    if grep -qE '"status":"(failed|cancelled)"' "$out"; then cat "$out" >&2; return 1; fi
    sleep 0.2
  done
  echo "job $job did not finish" >&2
  return 1
}
valuated_of() { grep -o '"valuated":[0-9]*' "$1" | head -1 | cut -d: -f2; }

submit_wait /tmp/append_cold.json
COLD=$(valuated_of /tmp/append_cold.json)
test "$COLD" -gt 0

# An identical resubmission answers entirely from the memo.
submit_wait /tmp/append_warm.json
WARM=$(valuated_of /tmp/append_warm.json)
if [ "$WARM" != "0" ]; then
  echo "pre-append resubmit valuated $WARM states, want 0 (memo baseline)" >&2
  exit 1
fi

# Append two rows (object form; absent columns are null — valid for
# any schema) and check the version the response reports.
curl -sf -X POST "http://$ADDR/v1/workloads/t3/rows" \
  -d '{"rows":[{},{}]}' | tee /tmp/append_resp.json
echo
grep -q '"table_version":1' /tmp/append_resp.json
grep -q '"rows":2' /tmp/append_resp.json
TOTAL=$(grep -o '"total_rows":[0-9]*' /tmp/append_resp.json | head -1 | cut -d: -f2)
test -n "$TOTAL"

# The catalog and /metrics agree on the new version and row count.
curl -sf "http://$ADDR/v1/workloads" | tee /tmp/append_catalog.json |
  grep -q '"table_version":1'
grep -q "\"rows\":$TOTAL" /tmp/append_catalog.json
METRICS=$(curl -sf "http://$ADDR/metrics")
echo "$METRICS" | grep '^modis_appends_total' | grep -q ' 1$'
echo "$METRICS" | grep '^modis_rows_appended_total' | grep -q ' 2$'
echo "$METRICS" | grep '^modis_table_version' | grep -q ' 1$'

# The same submission now differs: the append invalidated memo entries,
# so the report re-valuates against the grown table...
submit_wait /tmp/append_after.json
AFTER=$(valuated_of /tmp/append_after.json)
if [ "$AFTER" -le 0 ]; then
  echo "post-append resubmit valuated $AFTER states, want > 0 (report must differ)" >&2
  exit 1
fi
# ...and once re-memoized, the next identical run is warm again.
submit_wait /tmp/append_rewarm.json
REWARM=$(valuated_of /tmp/append_rewarm.json)
if [ "$REWARM" != "0" ]; then
  echo "re-warmed resubmit valuated $REWARM states, want 0" >&2
  exit 1
fi
echo "append smoke passed; cold=$COLD warm=$WARM after-append=$AFTER rewarm=$REWARM" >&2
