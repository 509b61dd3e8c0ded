// Golden accounting: on a crafted 2-level fanout-8 tree with one warp of
// 4 queries, the search kernel must issue exactly the accesses and steps
// the SIMT algorithm prescribes. This pins the accounting semantics every
// figure harness depends on (a silent extra gather would skew Figures
// 2/11/12/13 at once).
#include <gtest/gtest.h>

#include "btree/btree.hpp"
#include "harmonia/search.hpp"
#include "queries/workload.hpp"

namespace harmonia {
namespace {

gpusim::DeviceSpec test_spec() {
  auto spec = gpusim::titan_v();
  spec.num_sms = 2;
  spec.global_mem_bytes = 64 << 20;
  return spec;
}

struct Golden {
  gpusim::Device dev{test_spec()};
  std::vector<Key> keys = queries::make_tree_keys(20, 1);
  HarmoniaTree tree = HarmoniaTree::from_btree(btree::make_tree(keys, 8, 0.69));
  HarmoniaDeviceImage img = HarmoniaDeviceImage::upload(dev, tree);

  SearchStats run(const std::vector<Key>& qs, const SearchConfig& cfg) {
    auto d_q = dev.memory().malloc<Key>(qs.size());
    dev.memory().copy_to_device(d_q, std::span<const Key>(qs));
    auto d_out = dev.memory().malloc<Value>(qs.size());
    return search_batch(dev, img, d_q, qs.size(), d_out, cfg);
  }
};

TEST(SearchAccounting, ExactAccessCountsOneWarp) {
  Golden g;
  ASSERT_EQ(g.tree.height(), 2u);
  // 4 hit-queries in one warp (fanout-based groups: GS=8, 4 queries/warp).
  const std::vector<Key> qs{g.keys[1], g.keys[6], g.keys[11], g.keys[16]};
  SearchConfig cfg;  // defaults: fanout-based group, early exit
  const auto stats = g.run(qs, cfg);

  EXPECT_EQ(stats.warps, 1u);
  // Warp-wide accesses, in order: query load, level-0 key chunk,
  // prefix-sum load, leaf key chunk, value fetch, result store.
  EXPECT_EQ(stats.metrics.loads, 6u);
  // SIMT steps: broadcast, level-0 comparison chunk, child-index
  // arithmetic, leaf comparison chunk. (kpn=7 < GS=8: one chunk/level.)
  EXPECT_EQ(stats.metrics.steps, 4u);
  EXPECT_EQ(stats.chunk_steps, 2u);
  // No mask ever covers all 32 lanes (7 active lanes per 8-wide group).
  EXPECT_EQ(stats.metrics.coherent_steps, 0u);
}

TEST(SearchAccounting, MissSkipsValueFetch) {
  Golden g;
  const auto missing = queries::make_missing_keys(g.keys, 4, 2);
  SearchConfig cfg;
  const auto stats = g.run(missing, cfg);
  // Same sequence minus the value gather: 5 warp-wide accesses.
  EXPECT_EQ(stats.metrics.loads, 5u);
}

TEST(SearchAccounting, TransactionsScaleWithDivergentWarps) {
  Golden g;
  // Two warps' worth of queries, each warp hitting 4 distinct leaves:
  // leaf-level chunks cannot coalesce across groups.
  std::vector<Key> qs{g.keys[0], g.keys[5],  g.keys[10], g.keys[15],
                      g.keys[2], g.keys[7],  g.keys[12], g.keys[17]};
  SearchConfig cfg;
  const auto stats = g.run(qs, cfg);
  EXPECT_EQ(stats.warps, 2u);
  EXPECT_EQ(stats.metrics.loads, 12u);  // 6 per warp
  // Leaf chunk of each warp touches >= 2 distinct leaf nodes.
  EXPECT_GT(stats.metrics.divergent_loads, 0u);
}

TEST(SearchAccounting, NarrowGroupsMultiplyChunkSteps) {
  Golden g;
  const std::vector<Key> qs{g.keys[1], g.keys[6], g.keys[11], g.keys[16],
                            g.keys[3], g.keys[8], g.keys[13], g.keys[18]};
  SearchConfig narrow;
  narrow.group_size = 2;  // kpn=7 -> up to 4 chunks per level
  narrow.early_exit = false;
  const auto stats = g.run(qs, narrow);
  EXPECT_EQ(stats.warps, 1u);  // 16 queries/warp capacity, 8 queries used
  // Without early exit every level scans ceil(7/2) = 4 chunks.
  EXPECT_EQ(stats.chunk_steps, 2u * 4u);
}

}  // namespace
}  // namespace harmonia
