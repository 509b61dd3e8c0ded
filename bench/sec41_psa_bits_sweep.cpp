// §4.1.2 bit-sweep: sorting only N = 19 bits (Equation 2, for a 2^23-key
// tree) achieves the coalescing of a complete sort at ~35% of its cost.
//
// We sweep the number of sorted bits and report (a) average memory
// transactions per warp in the search kernel and (b) the sort cost
// normalized to the complete sort — the two curves whose crossover the
// paper uses to justify Equation 2.
#include "bench_common.hpp"

#include <algorithm>
#include <vector>

#include "sort/gpu_sort_model.hpp"

namespace hb = harmonia::bench;
using namespace harmonia;

int main(int argc, char** argv) {
  Cli cli;
  cli.flag("size", "log2 tree size (paper: 23)", "20 (23 with --full)")
      .flag("queries", "log2 query batch", "17 (20 with --full)")
      .flag("fanout", "tree fanout", "64")
      .flag("seed", "workload seed", "1")
      .flag("full", "paper-scale tree (2^23)", "false")
      .flag("csv", "also write the table as CSV to this path", "(off)");
  if (!cli.parse(argc, argv)) return 1;

  const bool full = cli.get_bool("full", false);
  const unsigned lg = static_cast<unsigned>(cli.get_uint("size", full ? 23 : 20));
  const std::uint64_t n = 1ULL << cli.get_uint("queries", full ? 20 : 17);
  const auto fanout = static_cast<unsigned>(cli.get_uint("fanout", 64));
  const std::uint64_t seed = cli.get_uint("seed", 1);

  hb::print_header("Partial-sort bit sweep",
                   "§4.1.2 (Equation 2: N = log2(T) - log2(K))");

  const std::uint64_t size = 1ULL << lg;
  const auto keys = queries::make_tree_keys(size, seed);
  gpusim::Device dev(hb::bench_spec());
  auto index = HarmoniaIndex::build(dev, hb::entries_for(keys), {.fanout = fanout});
  const auto qs =
      queries::make_queries(keys, n, queries::Distribution::kUniform, seed + 1);

  const unsigned eq2 = psa_equation2_bits(size, dev.spec());
  const double full_sort_cycles =
      sort::gpu_radix_sort_cycles(dev.spec(), n, 64, true);

  Table table({"sorted bits", "avg mem-transactions/warp", "sort cost (vs full)",
               "note"});
  std::vector<unsigned> sweep;
  for (unsigned bits : {0u, 4u, 8u, 12u, 16u, eq2, 24u, 32u, 64u}) {
    if (std::find(sweep.begin(), sweep.end(), bits) == sweep.end()) sweep.push_back(bits);
  }
  std::sort(sweep.begin(), sweep.end());
  for (unsigned bits : sweep) {
    QueryOptions qopts;
    qopts.psa = bits == 0 ? PsaMode::kNone : PsaMode::kPartial;
    qopts.psa_override_bits = bits;
    // Narrowed groups pack 4 queries per warp, the configuration whose
    // coalescing the bit count actually affects (§4.1 + §4.2 compose).
    qopts.group_size = 8;
    dev.flush_caches();
    const auto r = index.search(qs, qopts);
    const double sort_frac = r.sort_cycles / full_sort_cycles;
    table.add(bits, r.search.metrics.avg_transactions_per_warp(), sort_frac,
              bits == eq2 ? "<- Equation 2" : "");
  }
  hb::emit(cli, table);
  std::cout << "\nEquation 2 for this tree: N = " << eq2
            << " bits (paper: 19 bits for T = 2^23, ~35% of full sort cost)\n";
  return 0;
}
