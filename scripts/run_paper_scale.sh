#!/usr/bin/env bash
# Paper-scale reproduction run (2^23..2^26-key trees, 2^20-query batches).
#
# The simulator is ~10^3x slower than silicon: expect minutes per
# harness at 2^23 and substantially longer at 2^26, which also needs
# about 8.5 GB of host RAM: Fig. 11 peaks at 2.1 GB at 2^24 and 4.2 GB
# at 2^25 (2^17 queries), and only its HB+ side still builds a pointer
# tree. Outputs land in results/ as both text and CSV.
set -euo pipefail

BUILD=${BUILD:-build}
OUT=${OUT:-results}
mkdir -p "$OUT"

run() {
  local name=$1
  shift
  echo "== $name $*"
  "$BUILD/bench/$name" "$@" --csv="$OUT/$name.csv" | tee "$OUT/$name.txt"
}

# Start with the sizes that complete quickly; extend the list as patience
# allows (2^26 is the paper's largest).
SIZES=${SIZES:-23,24}
QLOG=${QLOG:-20}

run fig08_psa_tradeoff          --sizes="$SIZES" --queries="$QLOG"
run fig11_overall_throughput    --sizes="$SIZES" --queries="$QLOG"
run fig12_profile_metrics       --sizes="$SIZES" --queries="$QLOG"
run fig13_ablation              --sizes="$SIZES" --queries="$QLOG"
run fig14_update_throughput     --sizes="$SIZES"
"$BUILD/bench/sec41_psa_bits_sweep" --full | tee "$OUT/sec41_psa_bits_sweep.txt"
"$BUILD/bench/fig02_mem_transactions" | tee "$OUT/fig02_mem_transactions.txt"
"$BUILD/bench/fig03_query_divergence" | tee "$OUT/fig03_query_divergence.txt"
run fig10_comparison_distribution --size=20
"$BUILD/bench/sec42_ntg_model_validation" --size=20 --queries=17 \
  | tee "$OUT/sec42_ntg_model_validation.txt"

# Opt-in online-serving sweep (E10): SERVING=1 scripts/run_paper_scale.sh
if [[ "${SERVING:-0}" == "1" ]]; then
  run ext_serving_sweep --size=23 --requests=200000 \
    --rates=1,2,4,8 --waits=25,50,100,200,400
fi

# Opt-in multi-device shard sweep (E11): SHARDS=1,2,4,8 scripts/run_paper_scale.sh
# (any comma list of device counts; off by default).
if [[ "${SHARDS:-}" != "" ]]; then
  run ext_shard_scaling --size=23 --queries="$QLOG" \
    --shards="$SHARDS" --dists=uniform,zipfian --mode=both --check=true
fi

echo "done; see $OUT/"
