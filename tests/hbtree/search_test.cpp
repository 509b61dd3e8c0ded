#include "hbtree/index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "harmonia/index.hpp"
#include "queries/workload.hpp"

namespace harmonia::hbtree {
namespace {

gpusim::DeviceSpec test_spec() {
  auto spec = gpusim::titan_v();
  spec.num_sms = 8;
  spec.global_mem_bytes = 512 << 20;
  return spec;
}

// HB+ search is the shared descend on the HB+ layout (fanout-wide
// groups, no early exit), reached through HBTreeIndex. Answers are checked
// against the pointer tree the index updates and flattens.
struct HBFixture {
  gpusim::Device dev{test_spec()};
  std::vector<Key> keys = queries::make_tree_keys(2500, 1);
  HBTreeIndex index{dev, btree::make_tree(keys, 16)};

  std::vector<Value> run(std::span<const Key> qs, SearchStats* stats_out = nullptr) {
    HarmoniaIndex::QueryResult r = index.search(qs);
    if (stats_out != nullptr) *stats_out = r.search;
    return r.values;
  }
};

TEST(HBSearch, HitsMatchHost) {
  HBFixture f;
  const auto qs = queries::make_queries(f.keys, 600, queries::Distribution::kUniform, 2);
  const auto out = f.run(qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ASSERT_EQ(out[i], f.index.tree().search(qs[i]).value());
  }
}

TEST(HBSearch, MissesReturnSentinel) {
  HBFixture f;
  const auto missing = queries::make_missing_keys(f.keys, 128, 3);
  for (Value v : f.run(missing)) ASSERT_EQ(v, kNotFound);
}

TEST(HBSearch, OddBatchSizes) {
  HBFixture f;
  for (std::uint64_t n : {1u, 2u, 31u, 33u, 257u}) {
    const auto qs = queries::make_queries(f.keys, n, queries::Distribution::kUniform, n);
    const auto out = f.run(qs);
    for (std::size_t i = 0; i < qs.size(); ++i) {
      ASSERT_EQ(out[i], f.index.tree().search(qs[i]).value());
    }
  }
}

TEST(HBSearch, ChildRefLoadsHappenEveryLevel) {
  HBFixture f;
  const auto qs = queries::make_queries(f.keys, 512, queries::Distribution::kUniform, 4);
  SearchStats stats;
  f.run(qs, &stats);
  // Loads per warp >= query load + per internal level (keys + child ref) +
  // leaf keys + value + out store. The kernel cannot skip the indirection.
  const std::uint64_t internal_levels = f.index.tree().height() - 1;
  EXPECT_GE(stats.metrics.loads,
            stats.warps * (1 + internal_levels * 2));
}

TEST(HBSearch, NoConstantCacheTraffic) {
  HBFixture f;
  const auto qs = queries::make_queries(f.keys, 256, queries::Distribution::kUniform, 5);
  SearchStats stats;
  f.run(qs, &stats);
  EXPECT_EQ(stats.metrics.const_hits, 0u);
}

// HB+ and Harmonia differ only in the child rule (§2.2 vs Equation 1):
// built from the same bulk-loaded B+tree and run at the fanout group
// without early exit, they scan the same chunks of the same nodes, so
// they return the same values in the same number of chunk steps.
class HBChildRuleOnly : public ::testing::TestWithParam<unsigned> {};

TEST_P(HBChildRuleOnly, MatchesHarmoniaWithoutEarlyExit) {
  const unsigned fanout = GetParam();
  const auto keys = queries::make_tree_keys(3000, 1);
  btree::BTree tree = btree::make_tree(keys, fanout);
  gpusim::Device dev_h(test_spec());
  HarmoniaIndex harmonia(dev_h, HarmoniaTree::from_btree(tree));
  gpusim::Device dev_b(test_spec());
  HBTreeIndex hb(dev_b, std::move(tree));

  std::vector<Key> qs = queries::make_queries(keys, 500, queries::Distribution::kUniform, 7);
  const auto missing = queries::make_missing_keys(keys, 100, 8);
  qs.insert(qs.end(), missing.begin(), missing.end());
  QueryOptions layout_only;
  layout_only.psa = PsaMode::kNone;
  layout_only.group_size = 0;
  layout_only.early_exit = false;
  const auto h = harmonia.search(qs, layout_only);
  const auto b = hb.search(qs);
  EXPECT_EQ(h.group_size_used, std::min(std::bit_ceil(fanout), 32u));
  EXPECT_EQ(h.values, b.values);
  EXPECT_EQ(h.search.warps, b.search.warps);
  EXPECT_EQ(h.search.chunk_steps, b.search.chunk_steps);
  EXPECT_GT(b.search.chunk_steps, 0u);
}

INSTANTIATE_TEST_SUITE_P(Fanouts, HBChildRuleOnly, ::testing::Values(16u, 33u, 64u, 128u));

class HBFanoutSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(HBFanoutSweep, CorrectAcrossFanouts) {
  const unsigned fanout = GetParam();
  gpusim::Device dev(test_spec());
  const auto keys = queries::make_tree_keys(1500, fanout);
  HBTreeIndex index(dev, btree::make_tree(keys, fanout));
  const auto qs = queries::make_queries(keys, 400, queries::Distribution::kUniform, 6);
  const std::vector<Value> out = index.search(qs).values;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ASSERT_EQ(out[i], index.tree().search(qs[i]).value());
  }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, HBFanoutSweep,
                         ::testing::Values(8u, 16u, 32u, 64u, 128u));

}  // namespace
}  // namespace harmonia::hbtree
