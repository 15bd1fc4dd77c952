#!/usr/bin/env bash
# Footprint smoke: start the bead daemon on the benchmark-sized store (~1.2M tuples),
# wait for `ready`, and fail if its peak resident set (VmHWM) is above the limit. The
# end-to-end counterpart of the unit pins on index bytes per posting and on the 16-byte
# value: the keyed-map layout this guards against peaked at 326 MB, the flat one with
# 24-byte values and a heap object per string at about 142 MB, the flat one with
# 16-byte values, short strings inline, at about 90 MB, and with clustered indexes
# (no array that restates tuple order) at about 78 MB. Also prints, without gating on
# them, the peak bytes per tuple and the start-up time, spawn to `ready` (10 ms polls).
#
# Usage: scripts/footprint_smoke.sh [path-to-target-dir] [limit-mb]
#        (defaults: target/release, 95)

set -euo pipefail

TARGET="${1:-target/release}"
LIMIT_MB="${2:-95}"
# What `--tuples 1000000 --seed 48879` generates.
TUPLES=1200172
BEAD="$TARGET/bead"
BEACTL="$TARGET/beactl"
SOCKET="$(mktemp -u /tmp/bead-footprint-XXXXXX.sock)"
LOG="$(mktemp /tmp/bead-footprint-XXXXXX.log)"

[ -x "$BEAD" ] && [ -x "$BEACTL" ] || {
    echo "error: $BEAD / $BEACTL not built — run: cargo build --release -p bead" >&2
    exit 1
}

cleanup() {
    if [ -n "${BEAD_PID:-}" ] && kill -0 "$BEAD_PID" 2>/dev/null; then
        kill "$BEAD_PID" 2>/dev/null || true
    fi
    rm -f "$SOCKET" "$LOG"
}
trap cleanup EXIT

SPAWNED_NS="$(date +%s%N)"
"$BEAD" --socket "$SOCKET" --tuples 1000000 --seed 48879 >"$LOG" 2>&1 &
BEAD_PID=$!

for _ in $(seq 1 6000); do
    grep -q '^ready$' "$LOG" 2>/dev/null && break
    kill -0 "$BEAD_PID" 2>/dev/null || { echo "error: bead died during startup:" >&2; cat "$LOG" >&2; exit 1; }
    sleep 0.01
done
grep -q '^ready$' "$LOG" || { echo "error: bead never became ready:" >&2; cat "$LOG" >&2; exit 1; }
READY_MS=$((($(date +%s%N) - SPAWNED_NS) / 1000000))

grep '^bead: listening' "$LOG"
HWM_KB="$(awk '/^VmHWM:/ { print $2 }' "/proc/$BEAD_PID/status")"
[ -n "$HWM_KB" ] || { echo "error: no VmHWM line in /proc/$BEAD_PID/status" >&2; exit 1; }
echo "start-up: $READY_MS ms from spawn to ready (not gated)"
echo "peak resident set: $((HWM_KB / 1024)) MB (limit $LIMIT_MB MB)"
echo "peak bytes per tuple: $((HWM_KB * 1024 / TUPLES)) over $TUPLES tuples (not gated)"

"$BEACTL" --socket "$SOCKET" shutdown >/dev/null
wait "$BEAD_PID"
BEAD_PID=""

if [ "$HWM_KB" -gt "$((LIMIT_MB * 1024))" ]; then
    echo "error: bead peaked at $((HWM_KB / 1024)) MB with 1M tuples, above the $LIMIT_MB MB limit" >&2
    exit 1
fi
echo "footprint smoke OK"
