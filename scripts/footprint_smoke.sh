#!/usr/bin/env bash
# Footprint smoke: start the bead daemon on the benchmark-sized store (~1.2M tuples),
# wait for `ready`, and fail if its peak resident set (VmHWM) is above the limit. The
# end-to-end counterpart of the unit pins on index bytes per posting and on the 16-byte
# value: the keyed-map layout this guards against peaked at 326 MB, the flat one with
# 24-byte values and a heap object per string at about 142 MB, the flat one with
# 16-byte values, short strings inline, at about 90 MB, with clustered indexes (no
# array that restates tuple order) at about 78 MB, and with no hash slots over keys that
# are consecutive ids (ψ2–ψ4) at 65 MB; the 75 MB limit (LIMIT_MB) leaves 10 MB for
# what the allocator and the kernel do differently on other hosts. Also prints, without
# gating on them, the peak bytes per tuple and the start-up time, spawn to `ready`
# (10 ms polls).
#
# A second leg starts the daemon with a 65 536-row session cache, sends it the 624 Q0s
# of the benchmark's `q0_hot_cached` hot set (districts 1–39 × days 41·slot, slot
# 0–15) through beactl, and gates the peak after them: what the cache keeps for the
# hot set's 22 223 entries. 69.4 MB (71 040 kB) on a 2-vCPU Linux VM with a one-tuple
# entry held as its tuple's offset, each key held once and no hash slots over ids,
# against 77.6 MB (79 448 kB) with the slots and 85.9–87.0 MB while every entry copied
# its rows into a batch and its key twice; the 74 MB limit (CACHED_LIMIT_MB) leaves
# 4.6 MB over the first.
#
# Usage: scripts/footprint_smoke.sh [path-to-target-dir] [limit-mb]
#        (defaults: target/release, 75)

set -euo pipefail

TARGET="${1:-target/release}"
LIMIT_MB="${2:-75}"
CACHED_LIMIT_MB=74
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

start_bead() { # start_bead <bead args...>: start the daemon on $SOCKET, wait until ready
    : >"$LOG"
    SPAWNED_NS="$(date +%s%N)"
    "$BEAD" --socket "$SOCKET" --tuples 1000000 --seed 48879 "$@" >"$LOG" 2>&1 &
    BEAD_PID=$!
    for _ in $(seq 1 6000); do
        grep -q '^ready$' "$LOG" 2>/dev/null && break
        kill -0 "$BEAD_PID" 2>/dev/null || { echo "error: bead died during startup:" >&2; cat "$LOG" >&2; exit 1; }
        sleep 0.01
    done
    grep -q '^ready$' "$LOG" || { echo "error: bead never became ready:" >&2; cat "$LOG" >&2; exit 1; }
    READY_MS=$((($(date +%s%N) - SPAWNED_NS) / 1000000))
}

hwm_kb() { # hwm_kb: the running daemon's peak resident set, in kB
    local kb
    kb="$(awk '/^VmHWM:/ { print $2 }' "/proc/$BEAD_PID/status")"
    [ -n "$kb" ] || { echo "error: no VmHWM line in /proc/$BEAD_PID/status" >&2; exit 1; }
    echo "$kb"
}

stop_bead() { # stop_bead: SHUTDOWN, then wait for the daemon to exit
    "$BEACTL" --socket "$SOCKET" shutdown >/dev/null
    wait "$BEAD_PID"
    BEAD_PID=""
}

start_bead
grep '^bead: listening' "$LOG"
HWM_KB="$(hwm_kb)"
echo "start-up: $READY_MS ms from spawn to ready (not gated)"
echo "peak resident set: $((HWM_KB / 1024)) MB (limit $LIMIT_MB MB)"
echo "peak bytes per tuple: $((HWM_KB * 1024 / TUPLES)) over $TUPLES tuples (not gated)"
stop_bead

if [ "$HWM_KB" -gt "$((LIMIT_MB * 1024))" ]; then
    echo "error: bead peaked at $((HWM_KB / 1024)) MB with 1M tuples, above the $LIMIT_MB MB limit" >&2
    exit 1
fi

start_bead --cache-rows 65536
for slot in $(seq 0 15); do
    for district in $(seq 1 39); do
        printf -v Q0 'Q0(age) :- Accident(aid, "district-%03d", "day-%04d"), Casualty(cid, aid, class, vid), Vehicle(vid, driver, age).' \
            "$district" "$((slot * 41))"
        "$BEACTL" --socket "$SOCKET" query "$Q0" >/dev/null \
            || { echo "error: hot-set Q0 not answered: $Q0" >&2; exit 1; }
    done
done
STATS="$("$BEACTL" --socket "$SOCKET" stats)"
echo "$STATS" | grep -q ' completed=624 .* cache_evictions=0 ' \
    || { echo "error: the hot set did not complete without evictions: $STATS" >&2; exit 1; }
CACHED_HWM_KB="$(hwm_kb)"
echo "peak resident set after the cached hot set: $((CACHED_HWM_KB / 1024)) MB, $CACHED_HWM_KB kB (limit $CACHED_LIMIT_MB MB)"
stop_bead

if [ "$CACHED_HWM_KB" -gt "$((CACHED_LIMIT_MB * 1024))" ]; then
    echo "error: bead peaked at $((CACHED_HWM_KB / 1024)) MB holding the hot set's cache entries, above the $CACHED_LIMIT_MB MB limit" >&2
    exit 1
fi
echo "footprint smoke OK"
