// §4.2 model validation: for each fanout and device preset, compare the
// NTG model's chosen thread-group size against an exhaustive sweep of the
// simulated kernel ("the NTG size of this model is basically consistent
// with the NTG size of the best performance"; e.g. GS=2 at fanout 64 and
// GS=4 at fanout 128 on the K80).
#include "bench_common.hpp"

#include "harmonia/ntg.hpp"

namespace hb = harmonia::bench;
using namespace harmonia;

int main(int argc, char** argv) {
  Cli cli;
  cli.flag("size", "log2 tree size", "18")
      .flag("queries", "log2 query batch", "16")
      .flag("seed", "workload seed", "1")
      .flag("csv", "also write the table as CSV to this path", "(off)");
  if (!cli.parse(argc, argv)) return 1;
  const unsigned lg = static_cast<unsigned>(cli.get_uint("size", 18));
  const std::uint64_t n = 1ULL << cli.get_uint("queries", 16);
  const std::uint64_t seed = cli.get_uint("seed", 1);

  hb::print_header("NTG model vs exhaustive sweep",
                   "§4.2 (Equations 3/4 + static profiling, TITAN V and K80)");

  Table table({"device", "fanout", "model GS", "best GS (sweep)",
               "model tp (Gq/s)", "best tp (Gq/s)", "model/best (%)"});

  for (const auto& spec : {gpusim::titan_v(), gpusim::tesla_k80()}) {
    for (unsigned fanout : {8u, 16u, 32u, 64u, 128u}) {
      const auto keys = queries::make_tree_keys(1ULL << lg, seed);
      const auto tree = HarmoniaTree::build(hb::entries_for(keys), fanout);
      auto qs = queries::make_queries(keys, n, queries::Distribution::kUniform, seed + 1);
      // NTG assumes the PSA-sorted stream (§4.2).
      auto plan = psa_prepare(qs, tree.num_keys(), spec, PsaMode::kPartial);

      const auto sample =
          std::span<const Key>(plan.queries.data(), std::min<std::size_t>(1000, n));
      const auto choice = choose_group_size(tree, sample, spec);

      auto dev_spec = spec;
      dev_spec.global_mem_bytes = 4ULL << 30;
      gpusim::Device dev(dev_spec);
      const auto img = HarmoniaDeviceImage::upload(dev, tree);
      auto d_q = dev.memory().malloc<Key>(plan.queries.size());
      dev.memory().copy_to_device(d_q, std::span<const Key>(plan.queries));
      auto d_out = dev.memory().malloc<Value>(plan.queries.size());

      const unsigned widest = resolve_group_size(spec, fanout, 0);
      double best_tp = 0.0, model_tp = 0.0;
      unsigned best_gs = widest;
      for (unsigned gs = widest; gs >= 1; gs /= 2) {
        SearchConfig scfg;
        scfg.group_size = gs;
        dev.flush_caches();
        const auto stats = search_batch(dev, img, d_q, plan.queries.size(), d_out, scfg);
        const double tp = stats.metrics.throughput(spec, plan.queries.size());
        if (tp > best_tp) {
          best_tp = tp;
          best_gs = gs;
        }
        if (gs == choice.group_size) model_tp = tp;
        if (gs == 1) break;
      }

      table.add(spec.name, fanout, choice.group_size, best_gs, model_tp / 1e9,
                best_tp / 1e9, 100.0 * model_tp / best_tp);
    }
  }
  hb::emit(cli, table);
  std::cout << "\npaper: model choice matches the empirically best NTG size"
            << " (K80: GS=2 @ fanout 64, GS=4 @ fanout 128)\n";
  return 0;
}
