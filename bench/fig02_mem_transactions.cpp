// Figure 2: average memory transactions per warp for a height-4 fanout-8
// B+tree with 4 queries per warp — worst 3.25, uniform queries ~3.16
// (97% of worst), best 1.0.
//
// The figure counts, per tree level, how many distinct node accesses the
// warp's 4 queries issue (accesses to the same node coalesce into one
// transaction): worst = (1 + 4 + 4 + 4) / 4 levels = 3.25, best = fully
// shared path = 1.0. We traverse the Harmonia key region host-side and
// count exactly that.
#include "bench_common.hpp"

#include <algorithm>
#include <set>

namespace hb = harmonia::bench;
using namespace harmonia;

namespace {

/// Average per-level distinct-node transactions over all 4-query warps.
double transactions_per_warp(const HarmoniaTree& tree, const std::vector<Key>& qs) {
  constexpr unsigned kQueriesPerWarp = 4;
  std::uint64_t transactions = 0;
  std::uint64_t warp_levels = 0;
  std::vector<std::uint32_t> node(kQueriesPerWarp);
  for (std::size_t base = 0; base + kQueriesPerWarp <= qs.size(); base += kQueriesPerWarp) {
    std::fill(node.begin(), node.end(), 0);
    for (unsigned level = 0; level < tree.height(); ++level) {
      std::set<std::uint32_t> distinct(node.begin(), node.end());
      transactions += distinct.size();
      ++warp_levels;
      if (level + 1 == tree.height()) break;
      for (unsigned j = 0; j < kQueriesPerWarp; ++j) {
        const auto keys = tree.node_keys(node[j]);
        const auto it = std::upper_bound(keys.begin(), keys.end(), qs[base + j]);
        node[j] = tree.prefix_sum()[node[j]] +
                  static_cast<std::uint32_t>(it - keys.begin());
      }
    }
  }
  // The figure's y-axis: transactions averaged over warps and levels.
  return static_cast<double>(transactions) / static_cast<double>(warp_levels);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.flag("tree-size", "keys in the height-4 fanout-8 tree", "1500")
      .flag("warps", "number of 4-query warps to measure", "8192")
      .flag("seed", "workload seed", "1")
      .flag("csv", "also write the table as CSV to this path", "(off)");
  if (!cli.parse(argc, argv)) return 1;

  const std::uint64_t tree_size = cli.get_uint("tree-size", 1500);
  const std::uint64_t warps = cli.get_uint("warps", 8192);
  const std::uint64_t seed = cli.get_uint("seed", 1);
  const std::uint64_t n = warps * 4;

  hb::print_header("Average memory transactions per warp",
                   "Figure 2 (height-4, fanout-8, 4 queries/warp, uniform)");

  const auto keys = queries::make_tree_keys(tree_size, seed);
  const auto tree = HarmoniaTree::build(hb::entries_for(keys), 8);
  std::cout << "tree: " << tree.height() << " levels, " << tree.num_nodes()
            << " nodes\n\n";

  // Worst case: each warp's queries land in 4 distinct subtrees.
  std::vector<Key> worst(n);
  const std::uint64_t quarter = keys.size() / 4;
  for (std::uint64_t w = 0; w < warps; ++w) {
    for (unsigned j = 0; j < 4; ++j) {
      worst[w * 4 + j] = keys[(j * quarter + w * 131) % keys.size()];
    }
  }

  const auto random_qs =
      queries::make_queries(keys, n, queries::Distribution::kUniform, seed + 1);

  // Best case: all 4 queries of a warp share the whole path.
  std::vector<Key> best(n);
  for (std::uint64_t w = 0; w < warps; ++w) {
    const Key k = keys[(w * 977) % keys.size()];
    for (unsigned j = 0; j < 4; ++j) best[w * 4 + j] = k;
  }

  const double t_worst = transactions_per_warp(tree, worst);
  const double t_random = transactions_per_warp(tree, random_qs);
  const double t_best = transactions_per_warp(tree, best);

  Table table({"case", "avg mem-transactions/warp", "% of worst"});
  table.add("Worst", t_worst, 100.0);
  table.add("Queries (uniform)", t_random, 100.0 * t_random / t_worst);
  table.add("Best", t_best, 100.0 * t_best / t_worst);
  hb::emit(cli, table);

  std::cout << "\npaper: worst 3.25, queries 3.16 (97% of worst), best 1.0\n";
  return 0;
}
