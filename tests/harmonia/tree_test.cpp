#include "harmonia/tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "btree/btree.hpp"
#include "common/expect.hpp"
#include "common/rng.hpp"
#include "queries/workload.hpp"

namespace harmonia {
namespace {

HarmoniaTree small_tree(std::uint64_t n, unsigned fanout, double fill = 0.69,
                        std::uint64_t seed = 1) {
  const auto keys = queries::make_tree_keys(n, seed);
  const auto bt = btree::make_tree(keys, fanout, fill);
  return HarmoniaTree::from_btree(bt);
}

TEST(HarmoniaTree, PaperFigure4PrefixSum) {
  // Build a two-level tree and check the prefix-sum property of §3.1:
  // prefix_sum[i] is node i's first-child BFS index; the root's is 1.
  const auto tree = small_tree(200, 8);
  tree.validate();
  ASSERT_GE(tree.height(), 2u);
  const auto ps = tree.prefix_sum();
  EXPECT_EQ(ps[0], 1u);
  // Child counts come from adjacent differences (the paper's rule).
  for (std::uint32_t n = 0; n < tree.num_nodes(); ++n) {
    if (tree.is_leaf(n)) {
      EXPECT_EQ(tree.child_count(n), 0u);
    } else {
      EXPECT_EQ(tree.child_count(n), tree.node_key_count(n) + 1);
    }
  }
  // Sentinel: one past the last node.
  EXPECT_EQ(ps[tree.num_nodes()], tree.num_nodes());
}

TEST(HarmoniaTree, Equation1ChildIndex) {
  // child_idx = PrefixSum[node_idx] + i - 1 for the i-th child (1-based).
  const auto tree = small_tree(500, 8);
  const auto ps = tree.prefix_sum();
  // Visiting the root's 2nd child (i=2) must give index ps[0] + 1.
  EXPECT_EQ(ps[0] + 2 - 1, ps[0] + 1);
  // And that child's own children follow the same rule recursively.
  const std::uint32_t c = ps[0];
  if (!tree.is_leaf(c)) {
    EXPECT_GT(ps[c], c);
    EXPECT_LE(ps[c] + tree.child_count(c), tree.num_nodes());
  }
}

TEST(HarmoniaTree, SearchMatchesBTree) {
  const auto keys = queries::make_tree_keys(3000, 2);
  const auto bt = btree::make_tree(keys, 16);
  const auto tree = HarmoniaTree::from_btree(bt);
  tree.validate();
  EXPECT_EQ(tree.num_keys(), bt.size());
  EXPECT_EQ(tree.height(), bt.height());
  for (Key k : keys) {
    ASSERT_EQ(tree.search(k), bt.search(k));
  }
  for (Key k : queries::make_missing_keys(keys, 500, 3)) {
    ASSERT_FALSE(tree.search(k).has_value());
    ASSERT_FALSE(bt.search(k).has_value());
  }
}

TEST(HarmoniaTree, SingleLeafTree) {
  const auto tree = small_tree(5, 8);
  tree.validate();
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_EQ(tree.first_leaf_index(), 0u);
  EXPECT_EQ(tree.prefix_sum()[0], 1u);  // == num_nodes: leaf, no children
}

TEST(HarmoniaTree, KeyRegionIsBreadthFirst) {
  const auto keys = queries::make_tree_keys(2000, 4);
  const auto bt = btree::make_tree(keys, 16);
  const auto tree = HarmoniaTree::from_btree(bt);
  const auto levels = bt.levels();
  std::uint32_t bfs = 0;
  for (const auto& level : levels) {
    for (const btree::Node* node : level) {
      const auto slots = tree.node_keys(bfs);
      for (std::size_t s = 0; s < node->keys.size(); ++s) {
        ASSERT_EQ(slots[s], node->keys[s]);
      }
      for (std::size_t s = node->keys.size(); s < slots.size(); ++s) {
        ASSERT_EQ(slots[s], kPadKey);
      }
      ++bfs;
    }
  }
  EXPECT_EQ(bfs, tree.num_nodes());
}

TEST(HarmoniaTree, PrefixSumArrayIsSmall) {
  // §3.1: "for a 64-fanout 4-level B+tree, the size of its prefix-sum
  // array at most is only about 16KB" — ours stores u32 entries, so a
  // 64-fanout tree over 2^17 keys stays in a few KiB.
  const auto tree = small_tree(1 << 17, 64);
  const std::uint64_t ps_bytes = tree.prefix_sum().size() * sizeof(std::uint32_t);
  EXPECT_LT(ps_bytes, 64u << 10);
  // The key region, by contrast, is orders of magnitude larger.
  EXPECT_GT(tree.key_region().size() * sizeof(Key), ps_bytes * 50);
}

TEST(HarmoniaTree, RangeMatchesBTree) {
  const auto keys = queries::make_tree_keys(4000, 5);
  const auto bt = btree::make_tree(keys, 32);
  const auto tree = HarmoniaTree::from_btree(bt);
  Xoshiro256 rng(6);
  for (int i = 0; i < 50; ++i) {
    std::uint64_t a = keys[rng.next_below(keys.size())];
    std::uint64_t b = keys[rng.next_below(keys.size())];
    if (a > b) std::swap(a, b);
    const auto expect = bt.range(a, b);
    const auto got = tree.range(a, b);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t j = 0; j < got.size(); ++j) {
      ASSERT_EQ(got[j].key, expect[j].key);
      ASSERT_EQ(got[j].value, expect[j].value);
    }
  }
}

TEST(HarmoniaTree, RangeWithLimit) {
  const auto tree = small_tree(1000, 16);
  const auto out = tree.range(0, ~std::uint64_t{0} - 1, 17);
  EXPECT_EQ(out.size(), 17u);
}

/// Asserts `got` and `want` are the same tree, region for region.
void expect_same_regions(const HarmoniaTree& got, const HarmoniaTree& want) {
  ASSERT_EQ(got.fanout(), want.fanout());
  ASSERT_EQ(got.num_keys(), want.num_keys());
  ASSERT_EQ(got.height(), want.height());
  for (unsigned l = 0; l < want.height(); ++l) ASSERT_EQ(got.level_start(l), want.level_start(l));
  ASSERT_TRUE(std::ranges::equal(got.key_region(), want.key_region()));
  ASSERT_TRUE(std::ranges::equal(got.prefix_sum(), want.prefix_sum()));
  ASSERT_TRUE(std::ranges::equal(got.value_region(), want.value_region()));
}

TEST(HarmoniaTree, BuildRoundTrip) {
  // One shape rule: HarmoniaTree::build writes what from_btree makes of
  // BTree::bulk_load, and rebuilding the tree's own unchanged leaves (the
  // batch updater's rebuild path) reproduces it. The first two cases
  // pin fills far from 0.69 (0.5 at fanout 8, 1.0 at fanout 16), where a
  // grouping that ignores the fill changes the node count or the height.
  struct Case {
    std::uint64_t keys;
    unsigned fanout;
    double fill;
  };
  std::vector<Case> cases{{1 << 16, 8, 0.5}, {1 << 16, 16, 1.0}};
  Xoshiro256 rng(37);
  for (int i = 0; i < 40; ++i) {
    cases.push_back({1 + rng.next_below(20000), 4 + static_cast<unsigned>(rng.next_below(125)),
                     0.5 + 0.5 * rng.next_double()});
  }
  for (const auto& c : cases) {
    SCOPED_TRACE(::testing::Message() << c.keys << " keys, fanout " << c.fanout << ", fill "
                                      << c.fill);
    const auto keys = queries::make_tree_keys(c.keys, c.keys + c.fanout);
    const auto built = HarmoniaTree::build(btree::entries_for(keys), c.fanout, c.fill);
    built.validate();
    expect_same_regions(built, HarmoniaTree::from_btree(btree::make_tree(keys, c.fanout, c.fill)));

    std::vector<btree::Entry> leaf_entries;
    std::vector<std::uint32_t> leaf_sizes;
    for (std::uint32_t l = built.first_leaf_index(); l < built.num_nodes(); ++l) {
      const auto leaf = built.leaf_entries(l);
      leaf_entries.insert(leaf_entries.end(), leaf.begin(), leaf.end());
      leaf_sizes.push_back(static_cast<std::uint32_t>(leaf.size()));
    }
    expect_same_regions(HarmoniaTree::build(leaf_entries, c.fanout, c.fill, leaf_sizes), built);
  }
}

TEST(HarmoniaTree, BuildSingleLeaf) {
  const std::vector<btree::Entry> entries{{1, 10}, {2, 20}, {3, 30}};
  const auto tree = HarmoniaTree::build(entries, 8);
  tree.validate();
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_EQ(tree.search(2).value(), 20u);
  EXPECT_FALSE(tree.search(4).has_value());
}

TEST(HarmoniaTree, BuildRejectsBadInput) {
  const std::vector<btree::Entry> entries{{1, 1}, {2, 1}, {5, 1}};
  EXPECT_THROW(HarmoniaTree::build({}, 8), ContractViolation);
  EXPECT_THROW(HarmoniaTree::build(entries, 3), ContractViolation);
  EXPECT_THROW(HarmoniaTree::build(entries, 8, 0.0), ContractViolation);
  EXPECT_THROW(HarmoniaTree::build(entries, 8, 1.5), ContractViolation);
  const std::vector<btree::Entry> unsorted{{5, 1}, {2, 1}};
  EXPECT_THROW(HarmoniaTree::build(unsorted, 8), ContractViolation);
  const std::vector<btree::Entry> duplicate{{2, 1}, {2, 2}};
  EXPECT_THROW(HarmoniaTree::build(duplicate, 8), ContractViolation);
  // Given leaves: none empty, none overfull, and they cover every entry.
  const std::vector<std::uint32_t> empty_leaf{0, 3};
  const std::vector<std::uint32_t> overfull{8};
  const std::vector<std::uint32_t> short_by_one{2};
  EXPECT_THROW(HarmoniaTree::build(entries, 8, 0.69, empty_leaf), ContractViolation);
  EXPECT_THROW(HarmoniaTree::build(entries, 8, 0.69, overfull), ContractViolation);
  EXPECT_THROW(HarmoniaTree::build(entries, 8, 0.69, short_by_one), ContractViolation);
}

TEST(HarmoniaTree, LeafInplaceUpdate) {
  auto tree = small_tree(300, 8);
  const auto keys = queries::make_tree_keys(300, 1);
  const Key k = keys[123];
  const std::uint32_t leaf = tree.find_leaf(k);
  EXPECT_TRUE(tree.leaf_update_inplace(leaf, k, 777));
  EXPECT_EQ(tree.search(k).value(), 777u);
  EXPECT_FALSE(tree.leaf_update_inplace(leaf, k + 1, 1));  // absent (gap key)
  tree.validate();
}

TEST(HarmoniaTree, LeafInplaceInsertAndErase) {
  auto tree = small_tree(300, 8, 0.5, 9);
  const auto keys = queries::make_tree_keys(300, 9);
  const auto missing = queries::make_missing_keys(keys, 1, 10);
  const Key k = missing[0];
  const std::uint32_t leaf = tree.find_leaf(k);
  const auto before = tree.num_keys();
  ASSERT_TRUE(tree.leaf_insert_inplace(leaf, k, 555));
  EXPECT_EQ(tree.num_keys(), before + 1);
  EXPECT_EQ(tree.search(k).value(), 555u);
  tree.validate();

  ASSERT_TRUE(tree.leaf_erase_inplace(leaf, k));
  EXPECT_EQ(tree.num_keys(), before);
  EXPECT_FALSE(tree.search(k).has_value());
  tree.validate();
}

TEST(HarmoniaTree, LeafInplaceInsertFullReturnsFalse) {
  auto tree = small_tree(300, 8, 1.0, 11);  // fill 1.0: all leaves full
  const auto keys = queries::make_tree_keys(300, 11);
  const auto missing = queries::make_missing_keys(keys, 1, 12);
  const std::uint32_t leaf = tree.find_leaf(missing[0]);
  EXPECT_FALSE(tree.leaf_insert_inplace(leaf, missing[0], 1));
}

TEST(HarmoniaTree, SearchRejectsReservedKey) {
  const auto tree = small_tree(100, 8);
  EXPECT_FALSE(tree.search(kPadKey).has_value());
}

class HarmoniaFanoutSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(HarmoniaFanoutSweep, SearchAllKeysAllFanouts) {
  const unsigned fanout = GetParam();
  const auto keys = queries::make_tree_keys(1500, fanout);
  const auto bt = btree::make_tree(keys, fanout);
  const auto tree = HarmoniaTree::from_btree(bt);
  tree.validate();
  for (Key k : keys) ASSERT_EQ(tree.search(k).value(), btree::value_for_key(k));
}

INSTANTIATE_TEST_SUITE_P(Fanouts, HarmoniaFanoutSweep,
                         ::testing::Values(4u, 8u, 16u, 32u, 64u, 128u));

}  // namespace
}  // namespace harmonia
