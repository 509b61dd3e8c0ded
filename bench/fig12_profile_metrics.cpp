// Figure 12: profile counters of the full Harmonia pipeline normalized to
// HB+Tree — global memory transactions (paper: 22%), memory divergence
// (66%), warp coherence (113%).
//
// These are the simulator's first-class counters (gpusim::KernelMetrics),
// the analogue of the paper's nvprof metrics.
#include "bench_common.hpp"

namespace hb = harmonia::bench;
using namespace harmonia;

int main(int argc, char** argv) {
  Cli cli;
  hb::add_common_flags(cli);
  if (!cli.parse(argc, argv)) return 1;
  auto cfg = hb::read_common(cli);
  if (!cli.has("sizes")) cfg.size_logs = {cfg.full ? 23u : 20u};

  hb::print_header("Profile metrics normalized to HB+Tree",
                   "Figure 12 (global mem transactions / memory divergence / "
                   "warp coherence)");

  Table table(
      {"log(tree size)", "metric", "HB+", "Harmonia", "Harmonia/HB+ (%)", "paper (%)"});
  for (unsigned lg : cfg.size_logs) {
    const std::uint64_t size = 1ULL << lg;
    const auto keys = queries::make_tree_keys(size, cfg.seed);
    const auto entries = hb::entries_for(keys);
    const auto qs = queries::make_queries(keys, cfg.num_queries, cfg.dist, cfg.seed + 1);

    gpusim::Device dev_b(hb::bench_spec());
    auto hb_idx = hbtree::HBTreeIndex::build(dev_b, entries, cfg.fanout, cfg.fill);
    const auto hb_res = hb_idx.search(qs);

    gpusim::Device dev_h(hb::bench_spec());
    auto h_idx = HarmoniaIndex::build(dev_h, entries,
                                      {.fanout = cfg.fanout, .fill_factor = cfg.fill});
    const auto h_res = h_idx.search(qs);

    const auto& hm = h_res.search.metrics;
    const auto& bm = hb_res.search.metrics;

    table.add(lg, "global mem-transactions", bm.global_transactions(),
              hm.global_transactions(),
              100.0 * static_cast<double>(hm.global_transactions()) /
                  static_cast<double>(bm.global_transactions()),
              22.0);
    table.add(lg, "memory divergence", bm.memory_divergence(), hm.memory_divergence(),
              100.0 * hm.memory_divergence() / bm.memory_divergence(), 66.0);
    table.add(lg, "warp coherence", bm.warp_coherence(), hm.warp_coherence(),
              100.0 * hm.warp_coherence() / bm.warp_coherence(), 113.0);
  }
  hb::emit(cli, table);
  return 0;
}
