#!/usr/bin/env bash
# Crash-recovery smoke for the serving daemon (docs/SERVING.md).
#
# Two phases, both against a journaled daemon (spmap-journal/1):
#
#   1. SIGKILL-and-restart demo: submit a pinned job, SIGKILL the daemon
#      mid-flight, restart it on the same journal, and assert the job is
#      still answerable — re-enqueued to completion, with the terminal
#      status surviving a *second* restart verbatim.
#
#   2. Chaos supervisor: run `spmap_loadgen --chaos --verify` while this
#      script SIGKILLs and restarts the daemon several times mid-run.
#      The loadgen exits nonzero unless every acknowledged request is
#      recorded terminal exactly once (lost=0, duplicated=0) and every
#      completed request re-runs locally bit-identically (mismatches=0).
#      The phase also fails unless the report shows at least one drop and
#      one reconnect: the recovery path (fresh hello, then `status` by job
#      id) must actually have run.
#
# Usage: scripts/crash_recovery_smoke.sh [BUILD_DIR]
#   BUILD_DIR defaults to ./build. Optional env:
#     SPMAP_SMOKE_RESTARTS   daemon kills in phase 2 (default 3)
#     SPMAP_SMOKE_REQUESTS   chaos requests (default 48)
#     SPMAP_FAILPOINTS       forwarded to the daemon (fault injection)

set -euo pipefail

BUILD_DIR="${1:-build}"
CLI="$BUILD_DIR/spmap_cli"
LOADGEN="$BUILD_DIR/spmap_loadgen"
RESTARTS="${SPMAP_SMOKE_RESTARTS:-3}"
REQUESTS="${SPMAP_SMOKE_REQUESTS:-120}"

WORK="$(mktemp -d /tmp/spmap_crash_smoke.XXXXXX)"
SOCK="$WORK/daemon.sock"
JOURNAL="$WORK/daemon.journal"
DAEMON_PID=""

cleanup() {
  [ -n "$DAEMON_PID" ] && kill -KILL "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

die() { echo "crash_recovery_smoke: $*" >&2; exit 1; }

[ -x "$CLI" ] || die "$CLI not built"
[ -x "$LOADGEN" ] || die "$LOADGEN not built"

start_daemon() {
  "$CLI" daemon --listen "unix:$SOCK" --workers 2 \
    --journal "$JOURNAL" --quiet &
  DAEMON_PID=$!
  for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && return 0
    kill -0 "$DAEMON_PID" 2>/dev/null || die "daemon died during startup"
    sleep 0.05
  done
  die "daemon never bound $SOCK"
}

kill_daemon() {
  kill -KILL "$DAEMON_PID" 2>/dev/null || true
  wait "$DAEMON_PID" 2>/dev/null || true
  DAEMON_PID=""
}

# A tiny wire client: newline-JSON over the unix socket via python3 would
# be cheating the "no new deps" rule in spirit; the loadgen already speaks
# the protocol, so phase 1 drives single requests through it instead.
run_one_request() {
  # One session, one request, pinned seed; --verify re-runs it locally.
  "$LOADGEN" --endpoint "unix:$SOCK" --sessions 1 --requests 1 \
    --tasks 16 --max-evals 2000 --seed "$1" --verify --quiet \
    --connect-retries 20 --backoff-ms 50
}

echo "== phase 1: SIGKILL mid-flight, restart, job survives =============="
start_daemon

# Park a slow job in the daemon (acknowledged, journaled, running), then
# SIGKILL before it can finish.
"$LOADGEN" --endpoint "unix:$SOCK" --sessions 1 --requests 1 --tasks 24 \
  --mapper "anneal:iters=200000000" --seed 11 --quiet &
SLOW_PID=$!
sleep 0.7  # long enough for submit+journal fsync, far short of completion
kill_daemon
kill -KILL "$SLOW_PID" 2>/dev/null || true
wait "$SLOW_PID" 2>/dev/null || true

[ -s "$JOURNAL" ] || die "journal is empty after the kill"

# Restart on the same journal: the acknowledged job must be re-enqueued
# and finish; new traffic must flow.
start_daemon
run_one_request 21 || die "restarted daemon cannot serve new requests"

# The journal must hold a terminal record for the re-enqueued job before
# we restart again: poll for it (the compacted journal stays small).
for _ in $(seq 1 200); do
  grep -q '"type":"terminal"' "$JOURNAL" 2>/dev/null && break
  sleep 0.1
done
grep -q '"type":"terminal"' "$JOURNAL" \
  || die "re-enqueued job never reached a terminal journal record"

# Second restart: the terminal result must still be answerable (the
# daemon replays it; a fresh request proves the daemon is healthy).
kill_daemon
start_daemon
run_one_request 22 || die "second restart broke the daemon"
kill_daemon
echo "phase 1 OK"

echo "== phase 2: chaos loadgen across $RESTARTS injected restarts ======="
rm -f "$JOURNAL"
start_daemon

# tasks=400 makes each request heavy enough (tens of ms) that the run
# spans every injected restart below; spff under an eval budget stays
# bit-identical for --verify.
"$LOADGEN" --endpoint "unix:$SOCK" --sessions 4 --requests "$REQUESTS" \
  --tasks 400 --max-evals 20000 --chaos --chaos-drop-rate 0.3 --verify \
  --connect-retries 40 --backoff-ms 50 --json "$WORK/chaos_report.json" &
LOADGEN_PID=$!

INJECTED=0
for i in $(seq 1 "$RESTARTS"); do
  sleep 0.6
  kill -0 "$LOADGEN_PID" 2>/dev/null || break  # already done: stop killing
  kill_daemon
  sleep 0.2  # leave the endpoint dark: clients must ride it out
  start_daemon
  INJECTED=$((INJECTED + 1))
  echo "  restart $i injected"
done

wait "$LOADGEN_PID" || die "chaos loadgen failed (lost/duplicated/mismatch)"
cat "$WORK/chaos_report.json"
kill_daemon
[ "$INJECTED" -ge "$RESTARTS" ] \
  || die "loadgen finished before all $RESTARTS restarts landed" \
         "(raise SPMAP_SMOKE_REQUESTS)"
count_of() {
  grep -o "\"$1\": [0-9]*" "$WORK/chaos_report.json" | grep -o '[0-9]*$' || true
}
DROPS=$(count_of drops)
RECONNECTS=$(count_of reconnects)
[ "${DROPS:-0}" -ge 1 ] || die "chaos report shows no connection drop"
[ "${RECONNECTS:-0}" -ge 1 ] || die "chaos report shows no reconnect"
echo "phase 2 OK ($INJECTED restarts, $DROPS connection drops," \
  "$RECONNECTS reconnects)"
echo "crash_recovery_smoke: all phases passed"
