// Figure 13: impact of each design choice — HB+Tree baseline, Harmonia
// tree structure alone (~1.4x), +PSA (~2x), +PSA+NTG (~3.4x) — across
// tree sizes. The tree-structure step is split in two: the layout alone
// (the child rule: HB+ and this row run the same descend at the fanout
// group without early exit), then early exit.
#include "bench_common.hpp"

#include <array>

namespace hb = harmonia::bench;
using namespace harmonia;

int main(int argc, char** argv) {
  Cli cli;
  hb::add_common_flags(cli);
  if (!cli.parse(argc, argv)) return 1;
  const auto cfg = hb::read_common(cli);

  hb::print_header("Impact of different design choices",
                   "Figure 13 (throughput in Gq/s; speedup vs HB+Tree)");

  Table table({"log(tree size)", "variant", "throughput (Gq/s)", "speedup vs HB+"});

  for (unsigned lg : cfg.size_logs) {
    const std::uint64_t size = 1ULL << lg;
    const auto keys = queries::make_tree_keys(size, cfg.seed);
    const auto entries = hb::entries_for(keys);
    const auto qs = queries::make_queries(keys, cfg.num_queries, cfg.dist, cfg.seed + 1);

    gpusim::Device dev_b(hb::bench_spec());
    auto hb_idx = hbtree::HBTreeIndex::build(dev_b, entries, cfg.fanout, cfg.fill);
    const double hb_tp = hb_idx.search(qs).throughput();
    table.add(lg, "HB+tree", hb_tp / 1e9, 1.0);

    gpusim::Device dev_h(hb::bench_spec());
    auto h_idx = HarmoniaIndex::build(dev_h, entries,
                                      {.fanout = cfg.fanout, .fill_factor = cfg.fill});

    struct Variant {
      const char* name;
      PsaMode psa;
      unsigned group_size;
      bool early_exit;
    };
    // The layout-only row runs last so the other rows' device allocations
    // (and so their cache behaviour) are those of a run without it; it is
    // printed right after HB+.
    const std::array<Variant, 4> variants{
        Variant{"Harmonia tree", PsaMode::kNone, 0, true},
        Variant{"Harmonia tree + PSA", PsaMode::kPartial, 0, true},
        Variant{"Harmonia tree + PSA + NTG", PsaMode::kPartial, kNtgModel, true},
        Variant{"Harmonia tree, no early exit", PsaMode::kNone, 0, false}};
    std::array<double, 4> tp{};
    for (std::size_t i = 0; i < variants.size(); ++i) {
      QueryOptions qopts;
      qopts.psa = variants[i].psa;
      qopts.group_size = variants[i].group_size;
      qopts.early_exit = variants[i].early_exit;
      dev_h.flush_caches();
      tp[i] = h_idx.search(qs, qopts).throughput();
    }
    for (const std::size_t i : {3u, 0u, 1u, 2u}) {
      table.add(lg, variants[i].name, tp[i] / 1e9, tp[i] / hb_tp);
    }
  }
  hb::emit(cli, table);
  std::cout << "\npaper: Harmonia tree ~1.4x, +PSA ~2x, +PSA+NTG ~3.4x vs HB+\n"
            << "(here the tree step splits: the layout alone, no early exit, then early exit)\n";
  return 0;
}
