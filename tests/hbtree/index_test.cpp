#include "hbtree/index.hpp"

#include <gtest/gtest.h>

#include <map>

#include "queries/workload.hpp"

namespace harmonia::hbtree {
namespace {

gpusim::DeviceSpec test_spec() {
  auto spec = gpusim::titan_v();
  spec.num_sms = 8;
  spec.global_mem_bytes = 512 << 20;
  return spec;
}

std::vector<btree::Entry> entries_for(const std::vector<Key>& keys) {
  std::vector<btree::Entry> out;
  for (Key k : keys) out.push_back({k, btree::value_for_key(k)});
  return out;
}

TEST(HBTreeIndex, BuildAndSearch) {
  gpusim::Device dev(test_spec());
  const auto keys = queries::make_tree_keys(2000, 1);
  auto index = HBTreeIndex::build(dev, entries_for(keys), 16);
  const auto qs = queries::make_queries(keys, 500, queries::Distribution::kUniform, 2);
  const auto result = index.search(qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ASSERT_EQ(result.values[i], btree::value_for_key(qs[i]));
  }
  EXPECT_GT(result.kernel_seconds, 0.0);
  EXPECT_GT(result.throughput(), 0.0);
  // Fanout-wide groups, no PSA sort.
  EXPECT_EQ(result.group_size_used, 16u);
  EXPECT_EQ(result.sorted_bits, 0u);
  EXPECT_EQ(result.sort_seconds, 0.0);
}

TEST(HBTreeIndex, UpdateBatchThenSearch) {
  gpusim::Device dev(test_spec());
  const auto keys = queries::make_tree_keys(3000, 3);
  auto index = HBTreeIndex::build(dev, entries_for(keys), 16);

  queries::BatchSpec spec;
  spec.size = 1000;
  spec.insert_fraction = 0.2;
  spec.seed = 4;
  const auto ops = queries::make_update_batch(keys, spec);
  std::map<Key, Value> oracle;
  for (Key k : keys) oracle[k] = btree::value_for_key(k);
  for (const auto& op : ops) oracle[op.key] = op.value;

  const auto stats = index.update_batch(ops);
  EXPECT_EQ(stats.total_ops(), 1000u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GT(stats.apply_seconds + stats.rebuild_seconds, 0.0);
  index.tree().validate();

  std::vector<Key> qs2;
  for (const auto& op : ops) qs2.push_back(op.key);
  const auto r2 = index.search(qs2);
  for (std::size_t i = 0; i < qs2.size(); ++i) {
    ASSERT_EQ(r2.values[i], oracle.at(qs2[i]));
  }
}

TEST(HBTreeIndex, DeleteBatch) {
  gpusim::Device dev(test_spec());
  const auto keys = queries::make_tree_keys(1000, 5);
  auto index = HBTreeIndex::build(dev, entries_for(keys), 8);
  std::vector<queries::UpdateOp> ops;
  for (std::size_t i = 0; i < keys.size(); i += 3) {
    ops.push_back({queries::OpKind::kDelete, keys[i], 0});
  }
  const auto stats = index.update_batch(ops);
  EXPECT_EQ(stats.deletes, ops.size());
  index.tree().validate();
  std::vector<Key> deleted;
  for (const auto& op : ops) deleted.push_back(op.key);
  const auto result = index.search(deleted);
  for (Value v : result.values) EXPECT_EQ(v, kNotFound);
}

}  // namespace
}  // namespace harmonia::hbtree
