#!/usr/bin/env bash
# Fleet smoke: two modisd nodes behind one modisproxy.
#
# Exercises the multi-node serving loop end to end: both nodes serve
# the same two workloads, the proxy consistent-hashes each workload's
# descriptor hash to an owner, jobs for the two workloads land on
# distinct nodes (asserted via shard job counts in each node's
# /healthz), and after the owner of one shard is SIGKILLed a
# resubmission through the proxy reroutes to the survivor and
# completes. A submit body carrying a field the job API does not have
# is refused by the proxy as a node refuses it. See docs/serving.md,
# "Multi-node serving".
set -euo pipefail

MODISD=${MODISD:-/tmp/modisd}
MODISPROXY=${MODISPROXY:-/tmp/modisproxy}
N1=127.0.0.1:9951
N2=127.0.0.1:9952
FRONT=127.0.0.1:9950
WORKDIR=$(mktemp -d)
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
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

wait_healthy() { # addr
  for _ in $(seq 1 50); do
    curl -sf "http://$1/healthz" >/dev/null && return 0
    sleep 0.2
  done
  echo "node $1 never became healthy" >&2
  return 1
}

submit() { # workload -> job id (via the proxy)
  curl -sf -X POST "http://$FRONT/v1/jobs" \
    -d "{\"workload\":\"$1\",\"algorithm\":\"bi\",\"options\":{\"epsilon\":0.15,\"max_level\":2,\"seed\":2},\"timeout_ms\":120000}" |
    python3 -c 'import json,sys; print(json.load(sys.stdin)["job_id"])'
}

wait_done() { # job id (via the proxy)
  for _ in $(seq 1 300); do
    curl -sf -o "$WORKDIR/job.json" "http://$FRONT/v1/jobs/$1"
    if grep -q '"status":"done"' "$WORKDIR/job.json"; then return 0; fi
    if grep -qE '"status":"(failed|cancelled)"' "$WORKDIR/job.json"; then
      cat "$WORKDIR/job.json" >&2
      return 1
    fi
    sleep 0.2
  done
  echo "job $1 never finished" >&2
  return 1
}

shard_jobs() { # node addr, descriptor hash -> jobs count for that shard
  curl -sf "http://$1/healthz" | python3 -c '
import json, sys
h = sys.argv[1]
node = json.load(sys.stdin)["node"]
print(next((s["jobs"] for s in node["shards"] if s["hash"] == h), 0))
' "$2"
}

echo "== start two nodes serving the same workloads"
"$MODISD" -addr "$N1" -advertise "$N1" -tasks t1,t3 -rows 100 \
  -state-dir "$WORKDIR/state1" -commit-interval 20ms &
PIDS+=($!)
PID1=$!
"$MODISD" -addr "$N2" -advertise "$N2" -tasks t1,t3 -rows 100 \
  -state-dir "$WORKDIR/state2" -commit-interval 20ms &
PIDS+=($!)
PID2=$!
wait_healthy "$N1"
wait_healthy "$N2"

echo "== start the proxy"
"$MODISPROXY" -addr "$FRONT" -nodes "$N1,$N2" -health-interval 500ms &
PIDS+=($!)
wait_healthy "$FRONT"

echo "== the merged catalog names both workloads with their hashes"
curl -sf "http://$FRONT/v1/workloads" >"$WORKDIR/catalog.json"
H1=$(python3 -c 'import json,sys; print(next(w["hash"] for w in json.load(sys.stdin) if w["name"]=="t1"))' <"$WORKDIR/catalog.json")
H3=$(python3 -c 'import json,sys; print(next(w["hash"] for w in json.load(sys.stdin) if w["name"]=="t3"))' <"$WORKDIR/catalog.json")
test "${#H1}" = 64 && test "${#H3}" = 64 && test "$H1" != "$H3"

echo "== the proxy refuses a per-run parallelism option with 400 naming the field, as a node does"
CODE=$(curl -s -o "$WORKDIR/refused.json" -w '%{http_code}' -X POST "http://$FRONT/v1/jobs" \
  -d '{"workload":"t3","algorithm":"bi","options":{"parallelism":2}}')
cat "$WORKDIR/refused.json"
test "$CODE" = 400
grep -q parallelism "$WORKDIR/refused.json"

echo "== submit one job per workload through the proxy"
J1=$(submit t1)
J3=$(submit t3)
wait_done "$J1"
wait_done "$J3"
grep -q '"skyline":\[{' "$WORKDIR/job.json"

echo "== the two shards landed on distinct nodes"
T1_ON_N1=$(shard_jobs "$N1" "$H1")
T1_ON_N2=$(shard_jobs "$N2" "$H1")
T3_ON_N1=$(shard_jobs "$N1" "$H3")
T3_ON_N2=$(shard_jobs "$N2" "$H3")
echo "   t1 jobs: node1=$T1_ON_N1 node2=$T1_ON_N2; t3 jobs: node1=$T3_ON_N1 node2=$T3_ON_N2"
# Each workload ran on exactly one node, and not the same one.
test $((T1_ON_N1 > 0 ? 1 : 0)) -ne $((T1_ON_N2 > 0 ? 1 : 0))
test $((T3_ON_N1 > 0 ? 1 : 0)) -ne $((T3_ON_N2 > 0 ? 1 : 0))
test $((T1_ON_N1 > 0 ? 1 : 0)) -ne $((T3_ON_N1 > 0 ? 1 : 0))

echo "== SIGKILL the owner of t3 and resubmit through the proxy"
if [ "$T3_ON_N1" -gt 0 ]; then
  OWNER_PID=$PID1 SURVIVOR=$N2
else
  OWNER_PID=$PID2 SURVIVOR=$N1
fi
kill -9 "$OWNER_PID"
for _ in $(seq 1 50); do
  kill -0 "$OWNER_PID" 2>/dev/null || break
  sleep 0.2
done

J3B=$(submit t3)
wait_done "$J3B"
grep -q '"skyline":\[{' "$WORKDIR/job.json"

echo "== the rerouted job ran on the survivor, and the proxy reports the dead node"
test "$(shard_jobs "$SURVIVOR" "$H3")" -gt 0
curl -sf "http://$FRONT/healthz" | grep -q '"status":"degraded"'

echo "fleet smoke: OK"
