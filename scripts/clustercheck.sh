#!/bin/sh
# Distributed-execution drift check: boot `coldtall serve -coordinator`
# plus two stateless workers, run the Table II artifact job and a
# multi-point, multi-benchmark sweep job (submitted as a spec file)
# through the cluster, and byte-diff each payload against a plain
# single-process server running the identical job. The sweep must lease
# exactly one unit per uncached design point. Then repeat Table II with a
# worker SIGKILLed mid-lease: the lease must expire and requeue, the
# surviving worker must finish, and the bytes must still match.
set -eu

BIN="${TMPDIR:-/tmp}/coldtall-clustercheck"
COORD_ADDR="${COLDTALL_CLUSTER_ADDR:-127.0.0.1:18090}"
LOCAL_ADDR="${COLDTALL_CLUSTER_LOCAL_ADDR:-127.0.0.1:18091}"
COORD="http://$COORD_ADDR"
LOCAL="http://$LOCAL_ADDR"
TOKEN="clustercheck-secret"
WORK="$(mktemp -d)"
PIDS=""

cleanup() {
  for pid in $PIDS; do kill -9 "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/coldtall

wait_http() {
  i=0
  until curl -fsS "$1" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 100 ]; then
      echo "clustercheck FAIL: $1 never came up" >&2
      exit 1
    fi
    sleep 0.2
  done
}

# status_field NAME BASE: pull one integer counter out of
# GET /v1/cluster/status.
status_field() {
  curl -fsS -H "X-Coldtall-Worker-Token: $TOKEN" "$2/v1/cluster/status" |
    grep -o "\"$1\":[0-9]*" | head -1 | cut -d: -f2
}

wait_status_positive() { # wait_status_positive FIELD BASE WHAT
  i=0
  while :; do
    v="$(status_field "$1" "$2" 2>/dev/null || true)"
    if [ -n "$v" ] && [ "$v" != "0" ]; then
      return 0
    fi
    i=$((i + 1))
    if [ "$i" -ge 300 ]; then
      echo "clustercheck FAIL: $3 (status field $1 stayed ${v:-unreadable})" >&2
      exit 1
    fi
    sleep 0.1
  done
}

run_job() { # run_job BASE OUTFILE [ARTIFACT|SPEC_FILE]
  "$BIN" jobs -server "$1" submit "${3:-table2}" > "$WORK/submit.txt"
  JOB_ID="$(awk '{print $1; exit}' "$WORK/submit.txt")"
  case "$JOB_ID" in
    j*) ;;
    *) echo "clustercheck FAIL: jobs submit printed no job ID: $(cat "$WORK/submit.txt")" >&2; exit 1 ;;
  esac
  "$BIN" jobs -server "$1" -poll 100ms wait "$JOB_ID" > "$2"
}

# The sweep job: three design points no artifact touches (so none is
# cached after Table II) under three benchmarks, nine cells in all.
SWEEP_POINTS=3
cat > "$WORK/sweep.json" <<'SPEC'
{"kind": "sweep",
 "points": [{"cell": "SRAM", "temperature_k": 123},
            {"cell": "3T-eDRAM", "temperature_k": 155},
            {"cell": "3T-eDRAM", "temperature_k": 245}],
 "benchmarks": ["namd", "lbm", "mcf"]}
SPEC

# Reference: the identical jobs on a plain single-process server.
"$BIN" serve -addr "$LOCAL_ADDR" -store-dir "$WORK/store-local" >"$WORK/local.log" 2>&1 &
PIDS="$PIDS $!"
wait_http "$LOCAL/healthz"
run_job "$LOCAL" "$WORK/local.csv"
run_job "$LOCAL" "$WORK/local-sweep.json" "$WORK/sweep.json"

# --- Phase 1: coordinator + two workers, clean run -----------------------

"$BIN" serve -addr "$COORD_ADDR" -coordinator -worker-token "$TOKEN" \
  -store-dir "$WORK/store-dist" >"$WORK/coord1.log" 2>&1 &
COORD_PID=$!
PIDS="$PIDS $COORD_PID"
wait_http "$COORD/healthz"

# The cluster surface must reject unauthenticated callers.
CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST -d '{}' "$COORD/v1/cluster/lease")"
if [ "$CODE" != "401" ]; then
  echo "clustercheck FAIL: unauthenticated cluster request answered $CODE, want 401" >&2
  exit 1
fi

"$BIN" worker -server "$COORD" -worker-token "$TOKEN" -name a -poll 20ms >"$WORK/worker-a.log" 2>&1 &
PIDS="$PIDS $!"
"$BIN" worker -server "$COORD" -worker-token "$TOKEN" -name b -poll 20ms >"$WORK/worker-b.log" 2>&1 &
PIDS="$PIDS $!"
wait_status_positive workers_registered_total "$COORD" "workers never registered"

run_job "$COORD" "$WORK/dist.csv"
cmp "$WORK/dist.csv" "$WORK/local.csv" || {
  echo "clustercheck FAIL: distributed Table II payload diverged from the single-process run" >&2
  exit 1
}
# The cluster, not the local fallback, must have computed the points.
UNITS="$(status_field units_done_total "$COORD")"
if [ -z "$UNITS" ] || [ "$UNITS" = "0" ]; then
  echo "clustercheck FAIL: coordinator reports 0 units done; the job fell back to local compute" >&2
  exit 1
fi

# The sweep leases characterizations, one unit per uncached point (the
# baseline is warm after Table II), never one per cell.
run_job "$COORD" "$WORK/dist-sweep.json" "$WORK/sweep.json"
cmp "$WORK/dist-sweep.json" "$WORK/local-sweep.json" || {
  echo "clustercheck FAIL: distributed sweep payload diverged from the single-process run" >&2
  exit 1
}
SWEEP_UNITS=$(($(status_field units_done_total "$COORD") - UNITS))
if [ "$SWEEP_UNITS" != "$SWEEP_POINTS" ]; then
  echo "clustercheck FAIL: sweep landed $SWEEP_UNITS units, want one per design point ($SWEEP_POINTS)" >&2
  exit 1
fi

for pid in $PIDS; do kill -9 "$pid" 2>/dev/null || true; done
PIDS=""

# --- Phase 2: SIGKILL a worker mid-lease, let it requeue -----------------

"$BIN" serve -addr "$COORD_ADDR" -coordinator -worker-token "$TOKEN" -lease-ttl 2s \
  -store-dir "$WORK/store-kill" >"$WORK/coord2.log" 2>&1 &
PIDS="$PIDS $!"
wait_http "$COORD/healthz"

# The doomed worker throttles so hard it never finishes a unit: killing
# it is guaranteed to interrupt mid-range.
"$BIN" worker -server "$COORD" -worker-token "$TOKEN" -name doomed -poll 20ms -throttle 2m \
  >"$WORK/worker-doomed.log" 2>&1 &
DOOMED_PID=$!
PIDS="$PIDS $DOOMED_PID"
wait_status_positive workers_registered_total "$COORD" "doomed worker never registered"

run_job "$COORD" "$WORK/dist-kill.csv" &
JOB_WAIT_PID=$!
PIDS="$PIDS $JOB_WAIT_PID"

wait_status_positive leases_granted_total "$COORD" "doomed worker never took a lease"
kill -9 "$DOOMED_PID"
"$BIN" worker -server "$COORD" -worker-token "$TOKEN" -name survivor -poll 20ms \
  >"$WORK/worker-survivor.log" 2>&1 &
PIDS="$PIDS $!"

wait "$JOB_WAIT_PID" || {
  echo "clustercheck FAIL: Table II job did not complete after the worker kill" >&2
  exit 1
}
cmp "$WORK/dist-kill.csv" "$WORK/local.csv" || {
  echo "clustercheck FAIL: post-kill Table II payload diverged from the single-process run" >&2
  exit 1
}
REQUEUED="$(status_field leases_requeued_total "$COORD")"
if [ -z "$REQUEUED" ] || [ "$REQUEUED" = "0" ]; then
  echo "clustercheck FAIL: no lease requeued after SIGKILLing a mid-range worker" >&2
  exit 1
fi

# The server's /metrics mirrors the lease lifecycle counters.
METRICS="$(curl -fsS "$COORD/metrics")"
for series in coldtall_cluster_workers coldtall_cluster_leases_granted_total \
  coldtall_cluster_leases_requeued_total coldtall_cluster_points_total; do
  echo "$METRICS" | grep -q "$series" || {
    echo "clustercheck FAIL: /metrics missing $series" >&2
    exit 1
  }
done

echo "clustercheck OK: distributed Table II and a $SWEEP_POINTS-point sweep byte-identical to single-process, including after a mid-lease SIGKILL ($REQUEUED lease(s) requeued)"
