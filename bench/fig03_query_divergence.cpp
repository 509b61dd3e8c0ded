// Figure 3: query divergence — the number of key comparisons different
// queries need at each tree level fluctuates widely (min / avg / max over
// 100 queries; average close to 4 for the fanout-8 tree).
//
// The comparison count at a node is the sequential-scan cost of finding
// the child: (first slot whose key > target) + 1, capped at the node's
// key count.
#include "bench_common.hpp"

#include <algorithm>

#include "common/stats.hpp"

namespace hb = harmonia::bench;
using namespace harmonia;

int main(int argc, char** argv) {
  Cli cli;
  cli.flag("tree-size", "keys in the height-4 fanout-8 tree", "1500")
      .flag("queries", "queries to sample (paper: 100)", "100")
      .flag("fanout", "tree fanout", "8")
      .flag("seed", "workload seed", "1")
      .flag("csv", "also write the table as CSV to this path", "(off)");
  if (!cli.parse(argc, argv)) return 1;

  const std::uint64_t tree_size = cli.get_uint("tree-size", 1500);
  const std::uint64_t n = cli.get_uint("queries", 100);
  const auto fanout = static_cast<unsigned>(cli.get_uint("fanout", 8));
  const std::uint64_t seed = cli.get_uint("seed", 1);

  hb::print_header("Query divergence: per-level comparison counts",
                   "Figure 3 (100 uniform queries, height-4 fanout-8 tree)");

  const auto keys = queries::make_tree_keys(tree_size, seed);
  const auto tree = HarmoniaTree::build(hb::entries_for(keys), fanout);
  const auto qs = queries::make_queries(keys, n, queries::Distribution::kUniform, seed + 1);

  std::vector<Summary> per_level(tree.height());
  for (Key q : qs) {
    std::uint32_t node = 0;
    for (unsigned level = 0; level < tree.height(); ++level) {
      const auto slots = tree.node_keys(node);
      const auto it = std::upper_bound(slots.begin(), slots.end(), q);
      const auto boundary = static_cast<unsigned>(it - slots.begin());
      const unsigned comparisons = std::min(boundary + 1, tree.node_key_count(node));
      per_level[level].add(comparisons);
      if (level + 1 < tree.height()) node = tree.prefix_sum()[node] + boundary;
    }
  }

  Table table({"tree level", "min", "avg", "max"});
  for (unsigned level = 0; level < tree.height(); ++level) {
    table.add(level + 1, per_level[level].min(), per_level[level].mean(),
              per_level[level].max());
  }
  hb::emit(cli, table);

  std::cout << "\npaper: large min-max fluctuation at every level, average ~4\n";
  return 0;
}
