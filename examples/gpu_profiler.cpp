// nvprof-style profiling session: run the same query batch through the
// HB+Tree baseline and each Harmonia configuration, and dump the
// simulator's architectural counters (the Figure 12 metrics, per
// configuration) — a worked example of using gpusim::KernelMetrics to
// understand *why* a layout is fast.
#include <iostream>

#include "common/table.hpp"
#include "harmonia/index.hpp"
#include "hbtree/index.hpp"
#include "queries/workload.hpp"

using namespace harmonia;

namespace {

void report(Table& table, const std::string& name, const gpusim::KernelMetrics& m,
            double seconds, std::uint64_t queries) {
  table.add(name, m.global_transactions(), m.memory_divergence(), m.warp_coherence(),
            m.const_hits, m.readonly_hits + m.l2_hits,
            static_cast<double>(queries) / seconds / 1e9);
}

}  // namespace

int main() {
  const auto keys = queries::make_tree_keys(1 << 19, 1);
  std::vector<btree::Entry> entries;
  for (Key k : keys) entries.push_back({k, btree::value_for_key(k)});
  const auto qs =
      queries::make_queries(keys, 1 << 16, queries::Distribution::kUniform, 2);

  std::cout << "profiling " << qs.size() << " uniform queries over a 2^19-key,"
            << " fanout-64 tree (simulated TITAN V)\n";

  Table table({"configuration", "global txns", "mem divergence", "warp coherence",
               "const hits", "cache hits", "Gq/s"});

  {
    gpusim::Device dev(gpusim::titan_v());
    auto hb = hbtree::HBTreeIndex::build(dev, entries, 64);
    const auto r = hb.search(qs);
    report(table, "HB+Tree (baseline)", r.search.metrics, r.kernel_seconds, qs.size());
  }

  gpusim::Device dev(gpusim::titan_v());
  auto index = HarmoniaIndex::build(dev, entries, {.fanout = 64});

  struct Config {
    const char* name;
    PsaMode psa;
    unsigned group_size;
  };
  for (const Config c : {Config{"Harmonia tree", PsaMode::kNone, 0},
                         Config{"Harmonia + PSA", PsaMode::kPartial, 0},
                         Config{"Harmonia + PSA + NTG", PsaMode::kPartial, kNtgModel}}) {
    QueryOptions qopts;
    qopts.psa = c.psa;
    qopts.group_size = c.group_size;
    dev.flush_caches();
    const auto r = index.search(qs, qopts);
    report(table, c.name, r.search.metrics, r.total_seconds(), qs.size());
  }

  table.print(std::cout);
  std::cout << "\nreading the counters:\n"
            << "  - global txns drop when the prefix-sum region replaces child\n"
            << "    pointers (constant memory absorbs the top levels);\n"
            << "  - PSA cuts memory divergence: sorted neighbours share lines;\n"
            << "  - NTG trades a little coherence for far fewer wasted lanes.\n";
  return 0;
}
