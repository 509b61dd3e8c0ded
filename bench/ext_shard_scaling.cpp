// Extension: multi-device scaling. The paper's evaluation is single-GPU;
// this harness range-partitions the tree across 1-8 simulated devices
// (src/shard/) and measures aggregate search throughput — equal-width vs
// sample-balanced partitions, uniform vs zipfian queries — to show where
// sharding scales and where partition skew caps it. --check exits
// non-zero unless uniform throughput grows monotonically from 1 to 4
// devices (the scaling claim CI pins).
#include <map>

#include "bench_common.hpp"
#include "shard/sharded_index.hpp"

namespace hb = harmonia::bench;
using namespace harmonia;

namespace {

std::vector<std::string> parse_list(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.flag("size", "log2 tree size", "20")
      .flag("queries", "log2 query batch", "17")
      .flag("fanout", "tree fanout", "64")
      .flag("seed", "workload seed", "1")
      .flag("shards", "comma list of device counts", "1,2,4,8")
      .flag("dists", "comma list of query distributions", "uniform,zipfian")
      .flag("mode", "partition mode: width, balanced, or both", "both")
      .flag("check", "fail unless uniform throughput scales 1->4", "false")
      .flag("csv", "also write the table as CSV to this path", "(off)");
  if (!cli.parse(argc, argv)) return 1;
  const unsigned lg = static_cast<unsigned>(cli.get_uint("size", 20));
  const std::uint64_t n = 1ULL << cli.get_uint("queries", 17);
  const auto fanout = static_cast<unsigned>(cli.get_uint("fanout", 64));
  const std::uint64_t seed = cli.get_uint("seed", 1);
  const bool check = cli.get_bool("check", false);

  std::vector<unsigned> shard_counts;
  for (const auto& s : parse_list(cli.get_string("shards", "1,2,4,8")))
    shard_counts.push_back(static_cast<unsigned>(std::stoul(s)));
  const auto dists = parse_list(cli.get_string("dists", "uniform,zipfian"));
  const std::string mode_flag = cli.get_string("mode", "both");
  std::vector<std::string> modes;
  if (mode_flag == "both")
    modes = {"width", "balanced"};
  else
    modes = {mode_flag};
  for (const auto& m : modes) {
    if (m != "width" && m != "balanced") {
      std::cerr << "unknown --mode: " << m << " (width|balanced|both)\n";
      return 1;
    }
  }

  hb::print_header("Shard scaling: devices x partition mode x distribution",
                   "extension (multi-device, beyond the paper's single GPU)");

  const auto keys = queries::make_tree_keys(1ULL << lg, seed);
  const auto entries = hb::entries_for(keys);

  Table table({"dist", "mode", "shards", "min keys", "max keys", "Gq/s",
               "speedup", "bottleneck"});

  // (dist, mode) -> throughput at the smallest shard count (speedup base).
  std::map<std::pair<std::string, std::string>, double> base;
  // mode -> throughput per shard count on uniform queries (for --check).
  std::map<std::string, std::map<unsigned, double>> uniform_curve;

  for (const auto& dist_name : dists) {
    const auto dist = queries::distribution_from_string(dist_name);
    const auto qs = queries::make_queries(keys, n, dist, seed + 1);
    for (const auto& mode : modes) {
      for (const unsigned num_shards : shard_counts) {
        const auto plan = mode == "balanced"
                              ? shard::ShardPlan::sample_balanced(keys, num_shards)
                              : shard::ShardPlan::equal_width(num_shards);
        shard::ShardedOptions options;
        options.index.fanout = fanout;
        options.device = hb::bench_spec(2ULL << 30);
        shard::ShardedIndex index(entries, plan, options);

        const auto r = index.search(qs);
        std::uint64_t min_keys = ~std::uint64_t{0}, max_keys = 0;
        for (unsigned s = 0; s < num_shards; ++s) {
          min_keys = std::min(min_keys, index.shard_key_count(s));
          max_keys = std::max(max_keys, index.shard_key_count(s));
        }
        const auto key = std::make_pair(dist_name, mode);
        if (!base.count(key)) base[key] = r.throughput();
        if (dist == queries::Distribution::kUniform)
          uniform_curve[mode][num_shards] = r.throughput();
        table.add(dist_name, mode, num_shards, min_keys, max_keys,
                  r.throughput() / 1e9, r.throughput() / base[key],
                  r.bottleneck_shard);
      }
    }
  }

  hb::emit(cli, table);
  std::cout << "\nexpected: balanced partitions scale with devices on both"
            << " distributions; equal-width scaling collapses once skew"
            << " concentrates the batch on one shard\n";

  if (check) {
    // The acceptance gate: uniform-query throughput must grow
    // monotonically from 1 through 4 devices in every partition mode run.
    for (const auto& [mode, curve] : uniform_curve) {
      double prev = 0.0;
      unsigned prev_n = 0;
      for (const auto& [num_shards, gqs] : curve) {
        if (num_shards > 4) break;
        if (gqs < prev) {
          std::cerr << "FAIL: uniform/" << mode << " throughput not monotone: "
                    << prev_n << " shards -> " << prev / 1e9 << " Gq/s, "
                    << num_shards << " shards -> " << gqs / 1e9 << " Gq/s\n";
          return 1;
        }
        prev = gqs;
        prev_n = num_shards;
      }
    }
    std::cout << "check passed: uniform throughput monotone 1->4 devices\n";
  }
  return 0;
}
