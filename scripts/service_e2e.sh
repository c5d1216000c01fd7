#!/usr/bin/env bash
# End-to-end exercise of the tlcd experiment service, as run by the CI
# service-e2e job (and runnable locally: scripts/service_e2e.sh).
#
# Asserts, against a real tlcd process:
#   1. /healthz answers ok
#   2. a cold POST /v1/runs executes and returns a record with an ID
#   3. repeating it is served from the result cache (cached=true, zero new
#      executions by the server's own metrics)
#   4. concurrent identical requests coalesce into ONE execution
#   5. a body with an unknown field answers 400
#   6. tlcsweep -remote output is byte-identical to the local run
#   7. SIGTERM drains gracefully (exit 0, "drained cleanly")
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)

fail() { echo "service_e2e: FAIL: $*" >&2; exit 1; }

# wait_addr <logfile> <pid>: scrape the "listening on <host:port>" line a
# tlcd started with -addr 127.0.0.1:0 prints once its kernel-chosen port is
# bound. No fixed port means no collision with parallel CI jobs.
wait_addr() {
    local logfile=$1 pid=$2 a=
    for i in $(seq 1 50); do
        a=$(grep -m1 -oE 'listening on [0-9.:]+' "$logfile" 2>/dev/null | awk '{print $3}' || true)
        [ -n "$a" ] && { echo "$a"; return 0; }
        kill -0 "$pid" 2>/dev/null || { cat "$logfile" >&2; return 1; }
        sleep 0.2
    done
    return 1
}

cleanup() {
    [ -n "${tlcd_pid:-}" ] && kill -9 "$tlcd_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build"
go build -o "$workdir/tlcd" ./cmd/tlcd
go build -o "$workdir/tlcsweep" ./cmd/tlcsweep

echo "== start tlcd"
"$workdir/tlcd" -addr 127.0.0.1:0 -workers 4 -quick > "$workdir/tlcd.log" 2>&1 &
tlcd_pid=$!
addr=$(wait_addr "$workdir/tlcd.log" "$tlcd_pid") || fail "tlcd never reported its listen address"
base="http://$addr"

for i in $(seq 1 50); do
    if curl -sf "$base/healthz" > /dev/null 2>&1; then break; fi
    kill -0 "$tlcd_pid" 2>/dev/null || { cat "$workdir/tlcd.log"; fail "tlcd died on startup"; }
    sleep 0.2
done
curl -sf "$base/healthz" | grep -q '"ok"' || fail "healthz not ok"

# metric <name>: read one integer counter from /metricz.
metric() {
    curl -sf "$base/metricz" | tr -d ' \n' \
        | grep -o "\"name\":\"$1\",\"kind\":\"counter\",\"value\":[0-9]*" \
        | grep -o '[0-9]*$'
}

run_body='{"design":"TLC","benchmark":"perl","options":{"warm_instructions":2000000,"run_instructions":200000}}'

echo "== cold run"
cold=$(curl -sf -X POST "$base/v1/runs" -d "$run_body")
echo "$cold" | grep -q '"id"' || fail "cold run has no id: $cold"
echo "$cold" | grep -q '"cached": true' && fail "cold run claims to be cached"
id=$(echo "$cold" | tr -d ' ' | grep -o '"id":"[^"]*"' | cut -d'"' -f4)
executed_after_cold=$(metric server.runs.executed)
[ "$executed_after_cold" -ge 1 ] || fail "no execution counted after cold run"

echo "== cached run"
cached=$(curl -sf -X POST "$base/v1/runs" -d "$run_body")
echo "$cached" | grep -q '"cached": true' || fail "repeat run not served from cache: $cached"
[ "$(metric server.runs.executed)" -eq "$executed_after_cold" ] \
    || fail "cache hit triggered a new execution"
curl -sf "$base/v1/runs/$id" | grep -q '"cached": true' || fail "GET by id missed"

echo "== coalescing"
# A fresh, slower config (default-scale warm-up) posted concurrently: all
# four must resolve to ONE execution — joiners coalesce onto the flight.
slow_body='{"design":"DNUCA","benchmark":"oltp","options":{"run_instructions":2000000}}'
executed_before=$(metric server.runs.executed)
curl_pids=()
for i in 1 2 3 4; do
    curl -sf -X POST "$base/v1/runs" -d "$slow_body" > "$workdir/co$i.json" &
    curl_pids+=($!)
done
wait "${curl_pids[@]}"
executed_delta=$(( $(metric server.runs.executed) - executed_before ))
[ "$executed_delta" -eq 1 ] || fail "concurrent identical requests caused $executed_delta executions, want 1"
grep -l '"coalesced": true' "$workdir"/co*.json > /dev/null \
    || fail "no concurrent response was marked coalesced"
for i in 1 2 3 4; do
    grep -q '"cycles"' "$workdir/co$i.json" || fail "concurrent caller $i got no result"
done

echo "== unknown request fields are rejected"
# Request bodies decode strictly: a field the API does not declare (here
# the retired core-tier knob) answers 400 instead of running a full-detail
# simulation that silently ignored it.
stale_body='{"design":"TLC","benchmark":"perl","options":{"warm_instructions":2000000,"run_instructions":200000,"fidelity":"fast"}}'
status=$(curl -s -o "$workdir/stale.json" -w '%{http_code}' -X POST "$base/v1/runs" -d "$stale_body")
[ "$status" -eq 400 ] || fail "unknown option field answered $status, want 400: $(cat "$workdir/stale.json")"

echo "== remote sweep is byte-identical to local"
"$workdir/tlcsweep" -quick -bench perl > "$workdir/sweep_local.txt"
"$workdir/tlcsweep" -quick -bench perl -remote "$base" > "$workdir/sweep_remote.txt"
cmp "$workdir/sweep_local.txt" "$workdir/sweep_remote.txt" \
    || fail "tlcsweep -remote output diverged from the local run"

echo "== graceful shutdown"
kill -TERM "$tlcd_pid"
for i in $(seq 1 100); do
    kill -0 "$tlcd_pid" 2>/dev/null || break
    sleep 0.2
done
if wait "$tlcd_pid"; then :; else
    code=$?
    cat "$workdir/tlcd.log"
    fail "tlcd exited $code on SIGTERM, want 0"
fi
grep -q "drained cleanly" "$workdir/tlcd.log" || { cat "$workdir/tlcd.log"; fail "no clean-drain message"; }
tlcd_pid=

echo "service_e2e: PASS"
