#!/usr/bin/env bash
# Thread invariance of the simulator: gpusim runs the warps of a launch
# of 4096 warps or more on a pool sized from the process's CPU affinity
# mask, and the result must not depend on that size. Every workload of
# the end-to-end benchmark runs traced at smoke scale twice, once pinned
# to one CPU (a pool of one thread) and once on every CPU of the mask.
# No smoke-scale launch is that large, so batch_lookup also runs at full
# scale (launches of 32768 warps). Every metric that is not on the wall
# clock must match byte for byte, and so must the Prometheus metrics
# dump.
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
if ((cpus < 2)); then
  echo "note: the affinity mask has one CPU, so both runs use a pool of one thread" >&2
fi

status=0
for case in batch_lookup:smoke serve_read:smoke serve_mixed_sharded:smoke \
  serve_write_heavy:smoke batch_lookup:full; do
  w=${case%:*}
  scale=${case#*:}
  for run in one all; do
    pin=()
    [[ $run == one ]] && pin=(taskset -c "$first_cpu")
    "${pin[@]}" "$bin" --workload="$w" --seed=1 --scale="$scale" --scratch="$work/tmp" \
      --trace="$work/trace-$run-$scale" | tail -n 1 > "$work/$case-$run.json"
  done
  if ! python3 - "$case" "$work/$case-one.json" "$work/$case-all.json" <<'EOF'
import json
import sys

name, one_path, all_path = sys.argv[1:]
one = json.load(open(one_path))
every = json.load(open(all_path))
bad = [f"{name}: run on {label} CPUs failed" for label, r in (("1", one), ("all", every))
       if not r["correct"] or r["failed"]]
for metric, m in one["metrics"].items():
    if m["clock"] == "wall":
        continue
    other = every["metrics"].get(metric)
    if other is None or json.dumps(m["values"]) != json.dumps(other["values"]):
        bad.append(f"{name}: {metric} differs between 1 and all CPUs")
for line in bad:
    print(f"FAIL {line}", file=sys.stderr)
sys.exit(1 if bad else 0)
EOF
  then
    status=1
  fi
  if ! cmp -s "$work/trace-one-$scale/metrics_$w.prom" "$work/trace-all-$scale/metrics_$w.prom"
  then
    echo "FAIL $case: metrics_$w.prom differs between 1 and all CPUs" >&2
    status=1
  fi
done

if ((status == 0)); then
  echo "thread invariance: ok (1 vs $cpus CPUs)" >&2
fi
exit $status
