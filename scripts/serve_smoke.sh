#!/usr/bin/env bash
# CI smoke for the online metering daemon (rlblh_serve + load_gen).
#
# Proves the deployment-shaped version of the repo's bitwise-resume
# guarantee: a daemon SIGKILLed mid-run and restarted from its checkpoint
# directory must end a fleet run with checkpoint files byte-identical to a
# daemon that was never interrupted. Also exercises the graceful SIGTERM
# drain (checkpoint-then-exit, clean exit code) on every daemon. The
# reference daemon runs with --obs and must leave a run manifest that
# counts its checkpoints and their fsync time; the victim daemons run
# without it, so the byte comparison also shows that recording does not
# change a checkpoint.
#
# Usage: scripts/serve_smoke.sh [BUILD_DIR] [HOUSEHOLDS] [DAYS]
set -euo pipefail

BUILD_DIR="${1:-build}"
HOUSEHOLDS="${2:-50}"
DAYS="${3:-2}"
SEED_BASE=500
THREADS=4

SERVE="$BUILD_DIR/src/serve/rlblh_serve"
LOAD_GEN="$BUILD_DIR/src/serve/load_gen"
for bin in "$SERVE" "$LOAD_GEN"; do
  [ -x "$bin" ] || { echo "error: $bin not built" >&2; exit 2; }
done

WORK="$(mktemp -d)"
DAEMON_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

# Starts a daemon named $1 over checkpoint dir $2, with any further
# arguments, and waits for its listen line. Sets DAEMON_PID and SOCK.
start_daemon() {
  SOCK="$WORK/$1.sock"
  "$SERVE" --listen "unix:$SOCK" --checkpoint-dir "$2" "${@:3}" \
    > "$WORK/$1.log" 2>&1 &
  DAEMON_PID=$!
  for _ in $(seq 1 200); do
    grep -q "rlblh_serve listening" "$WORK/$1.log" 2>/dev/null && return 0
    kill -0 "$DAEMON_PID" 2>/dev/null || break
    sleep 0.05
  done
  echo "error: daemon $1 failed to start" >&2
  cat "$WORK/$1.log" >&2
  exit 1
}

run_fleet() {
  "$LOAD_GEN" --endpoint "unix:$SOCK" --households "$HOUSEHOLDS" \
    --days "$DAYS" --seed-base "$SEED_BASE" --threads "$THREADS"
}

# Byte-compares checkpoint dirs $1 and $2 for every household; label $3.
compare_ckpt_dirs() {
  local fail=0 h id ref got
  for ((h = 0; h < HOUSEHOLDS; ++h)); do
    id=$((SEED_BASE + h))
    ref="$1/h$id.ckpt"
    got="$2/h$id.ckpt"
    [ -f "$ref" ] || { echo "$3: missing checkpoint h$id in $1" >&2; fail=1; continue; }
    [ -f "$got" ] || { echo "$3: missing checkpoint h$id in $2" >&2; fail=1; continue; }
    cmp -s "$ref" "$got" || { echo "$3: household $id checkpoint DIFFERS" >&2; fail=1; }
  done
  if [ "$fail" -ne 0 ]; then
    echo "serve_smoke: FAILED — $3 state is not bitwise-identical" >&2
    exit 1
  fi
}

echo "== reference run: $HOUSEHOLDS households x $DAYS days, no interruption"
export RLBLH_OBS_OUT="$WORK/ref_manifest.json"
start_daemon "ref" "$WORK/ref_ckpt" --obs
unset RLBLH_OBS_OUT
run_fleet
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || { echo "error: reference daemon drain failed" >&2; exit 1; }
grep -q "stopped cleanly" "$WORK/ref.log" || {
  echo "error: reference daemon did not drain cleanly" >&2
  cat "$WORK/ref.log" >&2
  exit 1
}
DAEMON_PID=""
python3 - "$WORK/ref_manifest.json" <<'EOF'
import json, sys
record = json.load(open(sys.argv[1]))
assert record["schema"] == "rlblh-run-v1", record["schema"]
counters = record["counters"]
for name in ("serve.checkpoints", "serve.checkpoint.fsync_ns"):
    assert counters.get(name, 0) > 0, f"manifest counter {name} is not > 0"
saves = counters["serve.checkpoints"]
print(f"reference manifest: {saves} checkpoints, "
      f"{counters['serve.checkpoint.fsync_ns'] / saves / 1e3:.0f} us fsync "
      f"and {counters.get('serve.checkpoint.bytes', 0) / saves / 1e3:.0f} KB "
      f"per save")
EOF

echo "== interrupted run: SIGKILL the daemon mid-fleet, restart, resume"
start_daemon "victim" "$WORK/victim_ckpt"
run_fleet > "$WORK/leg1_load_gen.log" 2>&1 &
LOADGEN_PID=$!
# Kill once half the fleet has its first day-close checkpoint on disk:
# the daemon dies with some households done, some mid-day, some
# unstarted — independent of machine speed.
want=$(( (HOUSEHOLDS + 1) / 2 ))
for _ in $(seq 1 1000); do
  n=$(ls "$WORK/victim_ckpt" 2>/dev/null | wc -l)
  [ "$n" -ge "$want" ] && break
  sleep 0.01
done
kill -9 "$DAEMON_PID"
DAEMON_PID=""
# The generator is doomed (its daemon is gone mid-backoff); reap it.
kill "$LOADGEN_PID" 2>/dev/null || true
wait "$LOADGEN_PID" 2>/dev/null || true

start_daemon "victim2" "$WORK/victim_ckpt"
# Resume: re-Hello, pick up each household's checkpoint cursor, replay
# the lost tail. The JSON record proves the leg actually had work to
# redo.
"$LOAD_GEN" --endpoint "unix:$SOCK" --households "$HOUSEHOLDS" \
  --days "$DAYS" --seed-base "$SEED_BASE" --threads "$THREADS" \
  --json "$WORK/resume.json"
python3 - "$WORK/resume.json" <<'EOF'
import json, sys
record = json.load(open(sys.argv[1]))
assert record["days_completed"] > 0, \
    "resume leg replayed nothing - the kill landed after the fleet finished"
print(f"resume leg replayed {record['days_completed']} household-days "
      f"({record['reconnects']} reconnects, "
      f"{record['draining_waits']} draining waits)")
EOF
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || { echo "error: restarted daemon drain failed" >&2; exit 1; }
DAEMON_PID=""

echo "== comparing checkpoint files byte for byte"
compare_ckpt_dirs "$WORK/ref_ckpt" "$WORK/victim_ckpt" "kill/restart"

echo "serve_smoke: OK — $HOUSEHOLDS households bitwise-identical after kill/restart"
