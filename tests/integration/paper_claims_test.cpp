// Directional checks of the paper's headline claims, at test scale:
// the *orderings* of Figures 11-13 (who wins, which metric drops) must
// hold on the simulator before the full benches sweep them.
#include <gtest/gtest.h>

#include "harmonia/index.hpp"
#include "hbtree/index.hpp"
#include "queries/workload.hpp"

namespace harmonia {
namespace {

gpusim::DeviceSpec test_spec() {
  auto spec = gpusim::titan_v();
  spec.global_mem_bytes = 1ULL << 30;
  // Scale the cache hierarchy down with the test-scale tree so the memory
  // pressure matches the paper's (tree region >> L2); see EXPERIMENTS.md.
  spec.l2_bytes = 512 << 10;
  spec.readonly_cache_bytes_per_sm = 16 << 10;
  return spec;
}

std::vector<btree::Entry> entries_for(const std::vector<Key>& keys) {
  std::vector<btree::Entry> out;
  for (Key k : keys) out.push_back({k, btree::value_for_key(k)});
  return out;
}

struct Workbench {
  std::vector<Key> keys = queries::make_tree_keys(1 << 18, 1);
  std::vector<Key> qs =
      queries::make_queries(keys, 1 << 16, queries::Distribution::kUniform, 2);
  gpusim::Device dev_h{test_spec()};
  gpusim::Device dev_b{test_spec()};
  HarmoniaIndex harmonia_idx = HarmoniaIndex::build(dev_h, entries_for(keys), {.fanout = 64});
  hbtree::HBTreeIndex hb_idx = hbtree::HBTreeIndex::build(dev_b, entries_for(keys), 64);
};

TEST(PaperClaims, Fig12GlobalTransactionsDropVsHBTree) {
  Workbench s;
  QueryOptions plain;
  plain.psa = PsaMode::kNone;
  plain.group_size = 0;
  const auto hr = s.harmonia_idx.search(s.qs, plain);
  const auto br = s.hb_idx.search(s.qs);
  // Harmonia's prefix-sum region lives in constant memory / small caches:
  // far fewer transactions reach the L2/DRAM path than HB+'s pointer chase
  // over 1 KB node records (paper: 22%).
  EXPECT_LT(hr.search.metrics.global_transactions(),
            br.search.metrics.global_transactions());
  EXPECT_GE(hr.search.metrics.warp_coherence(), br.search.metrics.warp_coherence());
}

TEST(PaperClaims, Fig12PsaReducesMemoryDivergenceAndRaisesCoherence) {
  Workbench s;
  QueryOptions no_psa, with_psa;
  no_psa.psa = PsaMode::kNone;
  with_psa.psa = PsaMode::kPartial;
  // Narrowed groups pack several queries per warp: PSA's within-warp
  // coalescing and cross-warp locality both become visible.
  no_psa.group_size = 8;
  with_psa.group_size = 8;
  s.dev_h.flush_caches();
  const auto plain = s.harmonia_idx.search(s.qs, no_psa);
  s.dev_h.flush_caches();
  const auto sorted = s.harmonia_idx.search(s.qs, with_psa);
  EXPECT_LT(sorted.search.metrics.memory_divergence(),
            plain.search.metrics.memory_divergence());
  EXPECT_LT(sorted.search.metrics.dram_transactions,
            plain.search.metrics.dram_transactions);
  EXPECT_GE(sorted.search.metrics.warp_coherence(),
            plain.search.metrics.warp_coherence());
}

TEST(PaperClaims, Fig13AblationOrdering) {
  // HB+ < Harmonia tree < +PSA < +PSA+NTG in end-to-end throughput.
  Workbench s;
  const double hb = s.hb_idx.search(s.qs).throughput();

  QueryOptions tree_only;
  tree_only.psa = PsaMode::kNone;
  tree_only.group_size = 0;
  s.dev_h.flush_caches();
  const double harmonia_tree = s.harmonia_idx.search(s.qs, tree_only).throughput();

  QueryOptions with_psa = tree_only;
  with_psa.psa = PsaMode::kPartial;
  s.dev_h.flush_caches();
  const double psa = s.harmonia_idx.search(s.qs, with_psa).throughput();

  QueryOptions full = with_psa;
  full.group_size = kNtgModel;
  s.dev_h.flush_caches();
  const double ntg = s.harmonia_idx.search(s.qs, full).throughput();

  EXPECT_GT(harmonia_tree, hb);
  EXPECT_GT(psa, harmonia_tree);
  EXPECT_GE(ntg, psa * 0.95);  // NTG must not regress materially
}

TEST(PaperClaims, Fig11HarmoniaBeatsHBTreeAcrossSizes) {
  for (std::uint64_t size : {1u << 16, 1u << 18}) {
    const auto keys = queries::make_tree_keys(size, size);
    const auto qs =
        queries::make_queries(keys, 1 << 15, queries::Distribution::kUniform, 3);
    gpusim::Device dev_h(test_spec()), dev_b(test_spec());
    auto h = HarmoniaIndex::build(dev_h, entries_for(keys), {.fanout = 64});
    auto b = hbtree::HBTreeIndex::build(dev_b, entries_for(keys), 64);
    const double ht = h.search(qs).throughput();
    const double bt = b.search(qs).throughput();
    EXPECT_GT(ht, bt) << "tree size " << size;
  }
}

TEST(PaperClaims, Fig8FullSortKernelFasterButTotalCanLose) {
  // §4.1.1: complete sorting speeds the kernel but its overhead eats the
  // gain; PSA keeps most of the kernel win at ~35% of the sort cost.
  Workbench s;
  QueryOptions none, full, partial;
  none.psa = PsaMode::kNone;
  none.group_size = 0;
  full.psa_override_bits = 64;
  full.group_size = 0;
  partial.group_size = 0;

  s.dev_h.flush_caches();
  const auto r_none = s.harmonia_idx.search(s.qs, none);
  s.dev_h.flush_caches();
  const auto r_full = s.harmonia_idx.search(s.qs, full);
  s.dev_h.flush_caches();
  const auto r_partial = s.harmonia_idx.search(s.qs, partial);

  EXPECT_LT(r_full.kernel_seconds, r_none.kernel_seconds);
  EXPECT_LT(r_partial.kernel_seconds, r_none.kernel_seconds);
  EXPECT_LT(r_partial.sort_seconds, r_full.sort_seconds * 0.5);
  EXPECT_LT(r_partial.total_seconds(), r_full.total_seconds());
}

TEST(PaperClaims, Fig10MostQueriesResolveInFrontHalf) {
  // §4.2 / Figure 10: ~80% of queries find their child within the front
  // half of the node's key slots.
  const auto keys = queries::make_tree_keys(1 << 15, 7);
  const auto bt = btree::make_tree(keys, 64);
  const auto tree = HarmoniaTree::from_btree(bt);
  const auto qs = queries::make_queries(keys, 20000, queries::Distribution::kUniform, 8);

  std::uint64_t front_half = 0, total = 0;
  for (Key q : qs) {
    std::uint32_t node = 0;
    for (unsigned level = 0; level + 1 < tree.height(); ++level) {
      const auto slots = tree.node_keys(node);
      const auto it = std::upper_bound(slots.begin(), slots.end(), q);
      const auto boundary = static_cast<unsigned>(it - slots.begin());
      if (boundary < tree.keys_per_node() / 2) ++front_half;
      ++total;
      node = tree.prefix_sum()[node] + boundary;
    }
  }
  EXPECT_GT(static_cast<double>(front_half) / static_cast<double>(total), 0.5);
}

}  // namespace
}  // namespace harmonia
