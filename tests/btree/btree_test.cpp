#include "btree/btree.hpp"

#include <gtest/gtest.h>

#include <map>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "queries/workload.hpp"

namespace harmonia::btree {
namespace {

std::vector<Entry> make_entries(std::span<const Key> keys) {
  std::vector<Entry> out;
  for (Key k : keys) out.push_back({k, value_for_key(k)});
  return out;
}

TEST(BTree, EmptyTree) {
  BTree tree(8);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.height(), 0u);
  EXPECT_FALSE(tree.search(5).has_value());
  EXPECT_FALSE(tree.erase(5));
  EXPECT_FALSE(tree.update(5, 1));
  tree.validate();
}

TEST(BTree, SingleInsertAndSearch) {
  BTree tree(8);
  EXPECT_TRUE(tree.insert(10, 100));
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_EQ(tree.search(10).value(), 100u);
  EXPECT_FALSE(tree.search(11).has_value());
  tree.validate();
}

TEST(BTree, InsertOverwriteKeepsSize) {
  BTree tree(8);
  EXPECT_TRUE(tree.insert(10, 100));
  EXPECT_FALSE(tree.insert(10, 200));  // overwrite, not a new key
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.search(10).value(), 200u);
}

TEST(BTree, SequentialInsertGrowsHeight) {
  BTree tree(4);
  for (Key k = 0; k < 100; ++k) {
    ASSERT_TRUE(tree.insert(k, k * 2));
    tree.validate();
  }
  EXPECT_EQ(tree.size(), 100u);
  EXPECT_GT(tree.height(), 2u);
  for (Key k = 0; k < 100; ++k) EXPECT_EQ(tree.search(k).value(), k * 2);
}

TEST(BTree, ReverseInsert) {
  BTree tree(6);
  for (Key k = 200; k-- > 0;) ASSERT_TRUE(tree.insert(k, k + 1));
  tree.validate();
  for (Key k = 0; k < 200; ++k) EXPECT_EQ(tree.search(k).value(), k + 1);
}

TEST(BTree, UpdateExisting) {
  BTree tree(8);
  for (Key k = 0; k < 50; ++k) tree.insert(k, 0);
  EXPECT_TRUE(tree.update(25, 999));
  EXPECT_EQ(tree.search(25).value(), 999u);
  EXPECT_FALSE(tree.update(1000, 1));
}

TEST(BTree, EraseLeafSimple) {
  BTree tree(8);
  for (Key k = 0; k < 5; ++k) tree.insert(k, k);
  EXPECT_TRUE(tree.erase(2));
  EXPECT_FALSE(tree.search(2).has_value());
  EXPECT_EQ(tree.size(), 4u);
  EXPECT_FALSE(tree.erase(2));
  tree.validate();
}

TEST(BTree, EraseEverythingEmptiesTree) {
  BTree tree(4);
  for (Key k = 0; k < 64; ++k) tree.insert(k, k);
  for (Key k = 0; k < 64; ++k) {
    ASSERT_TRUE(tree.erase(k)) << k;
    tree.validate();
  }
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.height(), 0u);
}

TEST(BTree, EraseInterleavedWithValidate) {
  BTree tree(5);
  for (Key k = 0; k < 300; ++k) tree.insert(k * 7 % 300, k);
  Xoshiro256 rng(42);
  for (int i = 0; i < 150; ++i) {
    tree.erase(rng.next_below(300));
    tree.validate();
  }
}

TEST(BTree, BulkLoadMatchesSearches) {
  const auto keys = queries::make_tree_keys(5000, 1);
  const auto tree = make_tree(keys, 32);
  tree.validate();
  EXPECT_EQ(tree.size(), 5000u);
  for (std::size_t i = 0; i < keys.size(); i += 37) {
    EXPECT_EQ(tree.search(keys[i]).value(), value_for_key(keys[i]));
  }
  const auto missing = queries::make_missing_keys(keys, 100, 2);
  for (Key k : missing) EXPECT_FALSE(tree.search(k).has_value());
}

TEST(BTree, BulkLoadRejectsUnsorted) {
  BTree tree(8);
  const std::vector<Entry> bad{{5, 1}, {3, 2}};
  EXPECT_THROW(tree.bulk_load(bad), ContractViolation);
}

TEST(BTree, BulkLoadFillFactorAffectsNodeCount) {
  const auto keys = queries::make_tree_keys(10000, 3);
  const auto entries = make_entries(keys);
  BTree sparse(32), dense(32);
  sparse.bulk_load(entries, 0.5);
  dense.bulk_load(entries, 1.0);
  sparse.validate();
  dense.validate();
  const auto count_leaves = [](const BTree& t) { return t.levels().back().size(); };
  EXPECT_GT(count_leaves(sparse), count_leaves(dense));
}

TEST(BTree, BulkLoadSmallInputs) {
  for (std::size_t n : {1u, 2u, 3u, 7u, 8u, 9u}) {
    const auto keys = queries::make_tree_keys(n, n);
    const auto tree = make_tree(keys, 8);
    tree.validate();
    EXPECT_EQ(tree.size(), n);
    for (Key k : keys) EXPECT_TRUE(tree.search(k).has_value());
  }
}

TEST(BTree, RangeQueryInclusiveBounds) {
  BTree tree(8);
  for (Key k = 0; k < 100; k += 2) tree.insert(k, k * 10);
  const auto out = tree.range(10, 20);
  ASSERT_EQ(out.size(), 6u);  // 10,12,14,16,18,20
  EXPECT_EQ(out.front().key, 10u);
  EXPECT_EQ(out.back().key, 20u);
  for (const auto& e : out) EXPECT_EQ(e.value, e.key * 10);
}

TEST(BTree, RangeQueryLimit) {
  BTree tree(8);
  for (Key k = 0; k < 100; ++k) tree.insert(k, k);
  EXPECT_EQ(tree.range(0, 99, 10).size(), 10u);
}

TEST(BTree, RangeQueryCrossesLeaves) {
  const auto keys = queries::make_tree_keys(2000, 4);
  const auto tree = make_tree(keys, 8);
  const auto out = tree.range(keys[100], keys[500]);
  ASSERT_EQ(out.size(), 401u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].key, keys[100 + i]);
}

TEST(BTree, RangeEmptyWhenInverted) {
  BTree tree(8);
  tree.insert(5, 5);
  EXPECT_TRUE(tree.range(10, 1).empty());
}

TEST(BTree, LevelsBfsStructure) {
  const auto keys = queries::make_tree_keys(1000, 5);
  const auto tree = make_tree(keys, 16);
  const auto levels = tree.levels();
  ASSERT_EQ(levels.size(), tree.height());
  EXPECT_EQ(levels[0].size(), 1u);  // root
  for (std::size_t l = 0; l + 1 < levels.size(); ++l) {
    std::size_t children = 0;
    for (const Node* n : levels[l]) children += n->children.size();
    EXPECT_EQ(children, levels[l + 1].size());
  }
  for (const Node* leaf : levels.back()) EXPECT_TRUE(leaf->leaf);
}

TEST(BTree, FanoutTooSmallRejected) {
  EXPECT_THROW(BTree(3), ContractViolation);
}

TEST(BTree, MixedOpsAgainstMapOracle) {
  BTree tree(8);
  std::map<Key, Value> oracle;
  Xoshiro256 rng(99);
  for (int i = 0; i < 3000; ++i) {
    const Key k = rng.next_below(500);
    switch (rng.next_below(3)) {
      case 0:
        tree.insert(k, k + 1);
        oracle[k] = k + 1;
        break;
      case 1: {
        const bool a = tree.erase(k);
        const bool b = oracle.erase(k) > 0;
        ASSERT_EQ(a, b);
        break;
      }
      case 2: {
        const auto a = tree.search(k);
        const auto b = oracle.find(k);
        ASSERT_EQ(a.has_value(), b != oracle.end());
        if (a) {
          ASSERT_EQ(*a, b->second);
        }
        break;
      }
    }
  }
  tree.validate();
  EXPECT_EQ(tree.size(), oracle.size());
}

}  // namespace
}  // namespace harmonia::btree
