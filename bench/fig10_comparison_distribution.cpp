// Figure 10: the proportion of queries whose child search resolves within
// each quarter of the node's key slots, for fanouts 8-128 — about 80% of
// queries finish in the front half (the motivation for NTG).
#include "bench_common.hpp"

#include <algorithm>

namespace hb = harmonia::bench;
using namespace harmonia;

int main(int argc, char** argv) {
  Cli cli;
  cli.flag("size", "log2 tree size", "17")
      .flag("queries", "queries to sample", "20000")
      .flag("fill", "bulk-load fill factor", "0.69")
      .flag("seed", "workload seed", "1")
      .flag("csv", "also write the table as CSV to this path", "(off)");
  if (!cli.parse(argc, argv)) return 1;

  const unsigned lg = static_cast<unsigned>(cli.get_uint("size", 17));
  const std::uint64_t n = cli.get_uint("queries", 20000);
  const double fill = cli.get_double("fill", 0.69);
  const std::uint64_t seed = cli.get_uint("seed", 1);

  hb::print_header("Proportion of queries resolving in each node quarter",
                   "Figure 10 (fanouts 8..128)");

  Table table({"fanout", "1/4 (%)", "2/4 (%)", "3/4 (%)", "4/4 (%)", "front half (%)"});

  for (unsigned fanout : {8u, 16u, 32u, 64u, 128u}) {
    const auto keys = queries::make_tree_keys(1ULL << lg, seed);
    const auto tree = HarmoniaTree::build(hb::entries_for(keys), fanout, fill);
    const auto qs =
        queries::make_queries(keys, n, queries::Distribution::kUniform, seed + 1);

    std::uint64_t quarter_hits[4] = {0, 0, 0, 0};
    std::uint64_t total = 0;
    const unsigned kpn = tree.keys_per_node();
    for (Key q : qs) {
      std::uint32_t node = 0;
      for (unsigned level = 0; level < tree.height(); ++level) {
        const auto slots = tree.node_keys(node);
        const auto it = std::upper_bound(slots.begin(), slots.end(), q);
        const auto boundary = static_cast<unsigned>(it - slots.begin());
        const unsigned quarter = std::min(boundary * 4 / kpn, 3u);
        ++quarter_hits[quarter];
        ++total;
        if (level + 1 < tree.height()) node = tree.prefix_sum()[node] + boundary;
      }
    }

    const auto pct = [&](int q) {
      return 100.0 * static_cast<double>(quarter_hits[q]) / static_cast<double>(total);
    };
    table.add(fanout, pct(0), pct(1), pct(2), pct(3), pct(0) + pct(1));
  }
  hb::emit(cli, table);
  std::cout << "\npaper: ~80% of queries resolve within the front half for all"
            << " fanouts\n";
  return 0;
}
