#!/usr/bin/env bash
# Thread invariance of the simulator: gpusim runs the warps of a launch
# of 64 warps or more on a pool of every CPU of the process's affinity
# mask, and the result must not depend on that size. Every workload of
# the end-to-end benchmark runs traced at smoke scale, once pinned to one
# CPU (no pool: the launching thread runs every warp) and once on every
# CPU of the mask. When the mask has three CPUs or more, a third run is
# pinned to two of them, so a pool between one thread and all of them is
# compared too. At smoke scale every workload's search batches reach the
# pool, and serve_read's (about 1500 warps) pass the engine's 512-warp
# log ring. batch_lookup also runs at full scale: launches of 32768
# warps, and PSA sorts of 2^20 keys, which run on the same pool. Every
# metric that is not on the wall clock must match the one-CPU run's byte
# for byte, and so must the Prometheus metrics dump.
#
# Usage: scripts/check_thread_invariance.sh [path/to/harmonia_e2e]
# The default binary is build-bench/harmonia_e2e, from
#   cmake -S bench_e2e -B build-bench -DCMAKE_BUILD_TYPE=Release
#   cmake --build build-bench
set -euo pipefail

bin=${1:-build-bench/harmonia_e2e}
[[ -x $bin ]] || { echo "no harmonia_e2e binary at $bin" >&2; exit 2; }
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cpus=$(python3 -c 'import os; print(len(os.sched_getaffinity(0)))')
first_cpu=$(python3 -c 'import os; print(min(os.sched_getaffinity(0)))')
two_cpus=$(python3 -c 'import os; print(",".join(map(str, sorted(os.sched_getaffinity(0))[:2])))')
# Each run's name is its CPU count, "all" for the whole mask.
runs=(1 all)
if ((cpus < 2)); then
  echo "note: the affinity mask has one CPU, so every run uses a pool of one thread" >&2
elif ((cpus >= 3)); then
  runs+=(2)
fi

status=0
for case in batch_lookup:smoke serve_read:smoke serve_mixed_sharded:smoke \
  serve_write_heavy:smoke batch_lookup:full; do
  w=${case%:*}
  scale=${case#*:}
  for run in "${runs[@]}"; do
    pin=()
    [[ $run == 1 ]] && pin=(taskset -c "$first_cpu")
    [[ $run == 2 ]] && pin=(taskset -c "$two_cpus")
    "${pin[@]}" "$bin" --workload="$w" --seed=1 --scale="$scale" --scratch="$work/tmp" \
      --trace="$work/trace-$run-$scale" | tail -n 1 > "$work/$case-$run.json"
  done
  for run in "${runs[@]:1}"; do
    if ! python3 - "$case" "$run" "$work/$case-1.json" "$work/$case-$run.json" <<'EOF'
import json
import sys

name, label, one_path, other_path = sys.argv[1:]
one = json.load(open(one_path))
other = json.load(open(other_path))
bad = [f"{name}: run on {tag} CPUs failed" for tag, r in (("1", one), (label, other))
       if not r["correct"] or r["failed"]]
for metric, m in one["metrics"].items():
    if m["clock"] == "wall":
        continue
    o = other["metrics"].get(metric)
    if o is None or json.dumps(m["values"]) != json.dumps(o["values"]):
        bad.append(f"{name}: {metric} differs between 1 and {label} CPUs")
for line in bad:
    print(f"FAIL {line}", file=sys.stderr)
sys.exit(1 if bad else 0)
EOF
    then
      status=1
    fi
    if ! cmp -s "$work/trace-1-$scale/metrics_$w.prom" "$work/trace-$run-$scale/metrics_$w.prom"
    then
      echo "FAIL $case: metrics_$w.prom differs between 1 and $run CPUs" >&2
      status=1
    fi
  done
done

if ((status == 0)); then
  echo "thread invariance: ok (1 vs ${runs[*]:1} CPUs; the mask has $cpus)" >&2
fi
exit $status
