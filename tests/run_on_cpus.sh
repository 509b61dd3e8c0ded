#!/usr/bin/env bash
# Runs a command pinned to the first N CPUs of this process's affinity
# mask (all of them if the mask has fewer), so that gpusim's host pool,
# which takes every CPU of the mask, has N threads.
#
# Usage: tests/run_on_cpus.sh N command [args...]
set -euo pipefail

n=$1
shift
cpus=()
list=$(awk '/^Cpus_allowed_list:/ {print $2}' /proc/self/status)
IFS=, read -ra ranges <<< "$list"
for r in "${ranges[@]}"; do
  for ((c = ${r%-*}; c <= ${r#*-}; ++c)); do
    ((${#cpus[@]} < n)) && cpus+=("$c")
  done
done
mask=$(IFS=,; echo "${cpus[*]}")
exec taskset -c "$mask" "$@"
