#!/usr/bin/env bash
# Run every workload N times (tracing off) on one build and report, per workload and
# end-to-end metric, how far the runs disagree:
#   (max − min) ÷ median      — gated: exit 1 if it exceeds the metric's bound
#   (Q3 − Q1) ÷ median        — what the driver compares with the bound over ten seeds
#
#   benchmark/repeat.sh N [--seed S] [--vary-seed] [--seconds S] [--workload NAME]
#       --workload W   only this workload (default: all five)
#       --seed S       seed of every run (default 1)
#       --vary-seed    run i uses seed S + i instead
#       --seconds S    measured seconds per run (default: run_seconds of BENCHMARK.json)
set -euo pipefail
cd "$(dirname "$0")/.."

runs="${1:?usage: benchmark/repeat.sh N [--seed S] [--vary-seed] [--seconds S] [--workload NAME]}"
shift
seed=1
vary=0
workloads="point_lookup point_lookup_sharded q0_join q0_hot_cached mixed_open_loop"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
while [ $# -gt 0 ]; do
    case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --workload) workloads="$2"; shift 2 ;;
    --vary-seed) vary=1; shift ;;
    *) echo "repeat.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

out=benchmark/out
mkdir -p "$out"
record="$out/repeat.jsonl"
: >"$record"
for workload in $workloads; do
    for ((i = 0; i < runs; i++)); do
        run_seed=$((seed + vary * i))
        result="$(benchmark/run.sh --workload "$workload" --seed "$run_seed" \
            --seconds "$seconds" --trace 0 | tail -n 1)"
        printf '{"workload": "%s", "seed": %s, "result": %s}\n' \
            "$workload" "$run_seed" "$result" >>"$record"
        echo "$workload run $((i + 1))/$runs seed $run_seed done" >&2
    done
done

python3 - "$record" <<'PY'
import json, statistics, sys

bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
values = {}
for line in open(sys.argv[1]):
    run = json.loads(line)
    if not run["result"]["correct"]:
        sys.exit(f"{run['workload']} seed {run['seed']}: the run reported failures")
    for name, metric in run["result"]["metrics"].items():
        values.setdefault((run["workload"], name), []).append(metric["value"])

print(f"{'workload':<22}{'metric':<28}{'median':>14}{'(max-min)/med':>15}{'IQR/med':>10}{'bound':>8}")
over = 0
for (workload, name), xs in values.items():
    med = statistics.median(xs)
    span = (max(xs) - min(xs)) / med
    iqr = "-"
    if len(xs) >= 2:
        q = statistics.quantiles(xs, n=4)
        iqr = f"{(q[2] - q[0]) / med:.4f}"
    flag = ""
    if span > bounds[name]:
        over += 1
        flag = "  OVER"
    print(f"{workload:<22}{name:<28}{med:>14.4f}{span:>15.4f}{iqr:>10}{bounds[name]:>8}{flag}")
sys.exit(1 if over else 0)
PY
