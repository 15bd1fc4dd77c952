#!/usr/bin/env bash
# Build `bead` and `beabench`, then run the benchmark.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the result object (BENCHMARK.json's command)
#   benchmark/run.sh [--seed N] [--seconds S]
#       every workload, untraced then traced; results also go to
#       benchmark/out/results.jsonl, one object per line
set -euo pipefail
cd "$(dirname "$0")/.."

# Both builds print to stderr so stdout stays the benchmark's own.
cargo build --release --offline --quiet -p bead >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bead="${CARGO_TARGET_DIR:-target}/release/bead"
beabench="${CARGO_TARGET_DIR:-benchmark/target}/release/beabench"

# Scheduling noise: with six threads (2 client, 2 connection, 2 worker) floating over two
# cores, half-second throughput of one run wanders between 11k and 30k req/s. Give the
# daemon core 0 and the load generator core 1 when the machine allows it.
run=("$beabench" --bead "$bead")
if command -v taskset >/dev/null && taskset -c 0 true 2>/dev/null && taskset -c 1 true 2>/dev/null; then
    run=(taskset -c 1 "${run[@]}" --daemon-cpu 0)
fi

out=benchmark/out
mkdir -p "$out"
# A harness that was killed cannot stop its daemon. Its pid file (NAME-HARNESSPID.pid,
# holding the daemon's pid) stays behind: stop every daemon whose harness is gone.
reap() {
    for pid_file in "$out"/*.pid; do
        [ -e "$pid_file" ] || continue
        harness="${pid_file##*-}"
        if ! kill -0 "${harness%.pid}" 2>/dev/null; then
            kill "$(cat "$pid_file")" 2>/dev/null || true
            rm -f "$pid_file" "${pid_file%.pid}.sock"
        fi
    done
}
reap
trap reap EXIT

case " $* " in
*" --workload "*)
    "${run[@]}" --out "$out" "$@"
    ;;
*)
    results="$out/results.jsonl"
    : >"$results"
    status=0
    for workload in point_lookup point_lookup_sharded q0_join q0_hot_cached mixed_open_loop; do
        for trace in 0 1; do
            # pipefail: a failed run fails the pipeline; the other workloads still run.
            "${run[@]}" --out "$out" --workload "$workload" --trace "$trace" "$@" |
                tee "$out/last.txt" | grep -v '^{' || status=1
            result="$(tail -n 1 "$out/last.txt")"
            case "$result" in
            "{"*) printf '{"workload": "%s", "trace": %s, "result": %s}\n' \
                "$workload" "$trace" "$result" >>"$results" ;;
            esac
        done
    done
    rm -f "$out/last.txt"
    echo "results written to $results"
    exit "$status"
    ;;
esac
