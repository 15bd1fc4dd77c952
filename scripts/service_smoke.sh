#!/usr/bin/env bash
# Service smoke: start the bead daemon against a generated accidents store, drive a
# mixed accept/reject batch through beactl, and assert a clean shutdown. The same
# flow runs in-tree as crates/bead/tests/service_smoke.rs; this script exercises the
# real installed binaries end to end (CI's service-smoke job, also runnable locally).
#
# Usage: scripts/service_smoke.sh [path-to-target-dir]   (default: target/release)

set -euo pipefail

TARGET="${1:-target/release}"
BEAD="$TARGET/bead"
BEACTL="$TARGET/beactl"
SOCKET="$(mktemp -u /tmp/bead-smoke-XXXXXX.sock)"
LOG="$(mktemp /tmp/bead-smoke-XXXXXX.log)"

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
    "$BEAD" --socket "$SOCKET" "$@" >"$LOG" 2>&1 &
    BEAD_PID=$!
    # Wait for the ready line (the daemon prints it once the socket accepts).
    for _ in $(seq 1 100); do
        grep -q '^ready$' "$LOG" 2>/dev/null && break
        kill -0 "$BEAD_PID" 2>/dev/null || { echo "error: bead died during startup:" >&2; cat "$LOG" >&2; exit 1; }
        sleep 0.1
    done
    grep -q '^ready$' "$LOG" || { echo "error: bead never became ready:" >&2; cat "$LOG" >&2; exit 1; }
}

expect_exit() { # expect_exit <code> <description> <args...>
    local want="$1" what="$2"; shift 2
    local got=0
    "$BEACTL" --socket "$SOCKET" "$@" || got=$?
    if [ "$got" -ne "$want" ]; then
        echo "error: $what: expected exit $want, got $got" >&2
        exit 1
    fi
    echo "ok: $what (exit $got)"
}

stat_of() { "$BEACTL" --socket "$SOCKET" stats | tr ' ' '\n' | grep "^$1=" | cut -d= -f2; }

expect_drained() { # expect_drained <stats line>: nothing holds the budget, every admitted query ended
    echo "$1" | grep -q ' inflight_bound=0 ' || { echo "error: stats missing inflight_bound=0" >&2; exit 1; }
    [ $(( $(stat_of completed) + $(stat_of failed) )) -eq "$(stat_of admitted)" ] \
        || { echo "error: completed + failed != admitted: $1" >&2; exit 1; }
}

stop_bead() { # stop_bead: SHUTDOWN, then a clean exit (status 0) with the socket removed
    expect_exit 0 "shutdown acknowledged" shutdown
    for _ in $(seq 1 100); do
        kill -0 "$BEAD_PID" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$BEAD_PID" 2>/dev/null; then
        echo "error: bead still running after SHUTDOWN" >&2
        exit 1
    fi
    wait "$BEAD_PID" && STATUS=0 || STATUS=$?
    [ "$STATUS" -eq 0 ] || { echo "error: bead exited with status $STATUS:" >&2; cat "$LOG" >&2; exit 1; }
    [ ! -e "$SOCKET" ] || { echo "error: socket file left behind" >&2; exit 1; }
    BEAD_PID=""
}

# Start the daemon: ~2000 tuples, a 10k-tuple aggregate fetch budget, and a 4096-row
# cross-query fetch cache.
start_bead --tuples 2000 --seed 48879 --fetch-budget 10000 --cache-rows 4096

expect_exit 0 "ping answers" ping

# Anchored on an accident id — fetch bound 1, admitted (exit 0).
COLD="$("$BEACTL" --socket "$SOCKET" query 'Q(d) :- Accident(x, d, t), x = 1.')" \
    || { echo "error: cheap query not admitted" >&2; exit 1; }
echo "ok: cheap query admitted (exit 0)"

# The same rule under another id: one template, planned by the query above and only
# bound here — a hit, no new entry, and the district of the id that was sent.
TEMPLATES="$(stat_of plan_templates)"
OTHER="$("$BEACTL" --socket "$SOCKET" query 'Q(d) :- Accident(x, d, t), x = 2.')" \
    || { echo "error: the anchored query under another id not admitted" >&2; exit 1; }
[ "$(echo "$COLD" | tail -n +2)" = '"district-023"' ] && [ "$(echo "$OTHER" | tail -n +2)" = '"district-001"' ] \
    || { echo "error: wrong districts for ids 1 and 2: $COLD / $OTHER" >&2; exit 1; }
[ "$(stat_of plan_hits)" = 1 ] && [ "$(stat_of plan_templates)" = "$TEMPLATES" ] \
    || { echo "error: the second id was planned again: $("$BEACTL" --socket "$SOCKET" stats)" >&2; exit 1; }
echo "ok: another id served from the prepared template (plan_hits=1)"

# The same anchored query again — identical rows, served entirely from the
# session's cross-query fetch cache (zero store fetches, a recorded cache hit).
WARM="$("$BEACTL" --socket "$SOCKET" query 'Q(d) :- Accident(x, d, t), x = 1.')" \
    || { echo "error: cached repeat not admitted" >&2; exit 1; }
[ "$(echo "$COLD" | tail -n +2)" = "$(echo "$WARM" | tail -n +2)" ] \
    || { echo "error: cached repeat returned different rows" >&2; exit 1; }
echo "$WARM" | head -n 1 | grep -q 'tuples_fetched=0' \
    || { echo "error: cached repeat still fetched from the store: $WARM" >&2; exit 1; }
echo "$WARM" | head -n 1 | grep -q 'cache_hits=1' \
    || { echo "error: cached repeat recorded no cache hit: $WARM" >&2; exit 1; }
echo "ok: cached repeat served from the session cache (identical rows)"

# Q0's join chain prices far beyond the 10k budget — statically rejected (exit 3).
expect_exit 3 "expensive query rejected" query \
    'Q0(age) :- Accident(aid, "Queen'"'"'s Park", "day-0001"), Casualty(cid, aid, class, vid), Vehicle(vid, driver, age).'

# A query over an unknown relation is an ERR (exit 1) — and the daemon survives it.
expect_exit 1 "broken query errors" query 'Q(x) :- Nowhere(x).'

# The counters reflect exactly the batch above.
STATS="$("$BEACTL" --socket "$SOCKET" stats)"
echo "$STATS"
echo "$STATS" | grep -q 'completed=3' || { echo "error: stats missing completed=3" >&2; exit 1; }
echo "$STATS" | grep -q 'rejected=1' || { echo "error: stats missing rejected=1" >&2; exit 1; }
echo "$STATS" | grep -q 'budget=10000' || { echo "error: stats missing budget=10000" >&2; exit 1; }
echo "$STATS" | grep -q 'cache_hits=1' || { echo "error: stats missing cache_hits=1" >&2; exit 1; }
echo "$STATS" | grep -q 'cache_evictions=0' || { echo "error: stats missing cache_evictions=0" >&2; exit 1; }
# Two templates planned and kept (the anchored rule, Q0 — its REJECT is off the stored
# ticket); the broken rule missed and left nothing behind.
echo "$STATS" | grep -q 'plan_templates=2 plan_hits=2 plan_misses=3' \
    || { echo "error: stats missing plan_templates=2 plan_hits=2 plan_misses=3" >&2; exit 1; }
# The batch drained: nothing holds the budget, and every admitted query has ended.
expect_drained "$STATS"

stop_bead

# Cache pressure: a second daemon over the same store with an 8-row cache. Twelve
# distinct anchored queries, then the same twelve in reverse, cannot all stay resident:
# the cache evicts, the latest ones are hits, and each query sent again returns the
# rows of its first reply.
start_bead --tuples 2000 --seed 48879 --cache-rows 8
declare -a FIRST
for x in $(seq 1 12) $(seq 12 -1 1); do
    ROWS="$("$BEACTL" --socket "$SOCKET" query "Q(d, t) :- Accident(x, d, t), x = $x.")" \
        || { echo "error: anchored query x = $x not admitted" >&2; exit 1; }
    ROWS="$(echo "$ROWS" | tail -n +2)"
    if [ -z "${FIRST[x]+sent}" ]; then
        FIRST[x]="$ROWS"
    elif [ "$ROWS" != "${FIRST[x]}" ]; then
        echo "error: x = $x returned other rows under eviction: $ROWS / ${FIRST[x]}" >&2
        exit 1
    fi
done
STATS="$("$BEACTL" --socket "$SOCKET" stats)"
echo "$STATS"
[ "$(stat_of cache_evictions)" -gt 0 ] && [ "$(stat_of cache_hits)" -gt 0 ] \
    || { echo "error: an 8-row cache never evicted or never hit: $STATS" >&2; exit 1; }
expect_drained "$STATS"
echo "ok: an 8-row cache evicted, hit, and every repeat returned its first rows"

stop_bead

echo "service smoke OK: mixed accept/reject batch served, cache pressure served, clean shutdown"
