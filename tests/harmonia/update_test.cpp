#include "harmonia/update.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "btree/btree.hpp"
#include "common/rng.hpp"
#include "queries/workload.hpp"

namespace harmonia {
namespace {

using queries::OpKind;
using queries::UpdateOp;

struct UpdateFixture {
  std::vector<Key> keys;
  std::map<Key, Value> oracle;
  BatchUpdater updater;

  explicit UpdateFixture(std::uint64_t n = 2000, unsigned fanout = 8,
                         double fill = 0.69, std::uint64_t seed = 1)
      : keys(queries::make_tree_keys(n, seed)),
        updater(HarmoniaTree::from_btree(btree::make_tree(keys, fanout, fill))) {
    for (Key k : keys) oracle[k] = btree::value_for_key(k);
  }

  void apply_to_oracle(const std::vector<UpdateOp>& ops) {
    for (const auto& op : ops) {
      switch (op.kind) {
        case OpKind::kUpdate:
          if (auto it = oracle.find(op.key); it != oracle.end()) it->second = op.value;
          break;
        case OpKind::kInsert:
          oracle[op.key] = op.value;
          break;
        case OpKind::kDelete:
          oracle.erase(op.key);
          break;
      }
    }
  }

  void check_consistent() {
    const auto& tree = updater.tree();
    tree.validate();
    ASSERT_EQ(tree.num_keys(), oracle.size());
    for (const auto& [k, v] : oracle) {
      const auto got = tree.search(k);
      ASSERT_TRUE(got.has_value()) << "missing key " << k;
      ASSERT_EQ(*got, v) << "wrong value for " << k;
    }
  }
};

TEST(BatchUpdater, PureUpdatesInPlace) {
  UpdateFixture f;
  std::vector<UpdateOp> ops;
  Xoshiro256 rng(2);
  for (int i = 0; i < 500; ++i) {
    const Key k = f.keys[rng.next_below(f.keys.size())];
    ops.push_back({OpKind::kUpdate, k, rng.next()});
  }
  f.apply_to_oracle(ops);
  const auto stats = f.updater.apply(ops);
  EXPECT_EQ(stats.updates, 500u);
  EXPECT_EQ(stats.fine_path_ops, 500u);
  EXPECT_EQ(stats.coarse_path_ops, 0u);
  EXPECT_FALSE(stats.rebuilt);
  EXPECT_EQ(stats.failed, 0u);
  f.check_consistent();
}

TEST(BatchUpdater, UpdateMissingKeyFails) {
  UpdateFixture f;
  const auto missing = queries::make_missing_keys(f.keys, 10, 3);
  std::vector<UpdateOp> ops;
  for (Key k : missing) ops.push_back({OpKind::kUpdate, k, 1});
  const auto stats = f.updater.apply(ops);
  EXPECT_EQ(stats.failed, 10u);
  f.check_consistent();
}

TEST(BatchUpdater, InsertsWithoutSplitStayFine) {
  UpdateFixture f(2000, 8, 0.5, 4);  // half-full leaves: room to insert
  const auto fresh = queries::make_missing_keys(f.keys, 50, 5);
  std::vector<UpdateOp> ops;
  for (Key k : fresh) ops.push_back({OpKind::kInsert, k, k});
  f.apply_to_oracle(ops);
  const auto stats = f.updater.apply(ops);
  EXPECT_EQ(stats.inserts, 50u);
  EXPECT_GT(stats.fine_path_ops, 0u);
  f.check_consistent();
}

TEST(BatchUpdater, InsertsIntoFullLeavesSplit) {
  UpdateFixture f(2000, 8, 1.0, 6);  // full leaves: every insert splits
  const auto fresh = queries::make_missing_keys(f.keys, 100, 7);
  std::vector<UpdateOp> ops;
  for (Key k : fresh) ops.push_back({OpKind::kInsert, k, k * 2});
  f.apply_to_oracle(ops);
  const auto stats = f.updater.apply(ops);
  EXPECT_EQ(stats.coarse_path_ops, 100u);
  EXPECT_TRUE(stats.rebuilt);
  EXPECT_GT(stats.aux_nodes, 0u);
  EXPECT_GT(stats.moved_slots, 0u);
  f.check_consistent();
}

TEST(BatchUpdater, MixedPaperBatch) {
  // Fig. 14 mix: 5% inserts, 95% updates.
  UpdateFixture f(5000, 16, 0.9, 8);
  queries::BatchSpec spec;
  spec.size = 2000;
  spec.insert_fraction = 0.05;
  spec.seed = 9;
  const auto ops = queries::make_update_batch(f.keys, spec);
  f.apply_to_oracle(ops);
  const auto stats = f.updater.apply(ops);
  EXPECT_EQ(stats.total_ops(), 2000u);
  EXPECT_EQ(stats.failed, 0u);
  f.check_consistent();
}

TEST(BatchUpdater, DeletesInPlace) {
  UpdateFixture f(2000, 16, 0.69, 10);
  std::vector<UpdateOp> ops;
  // Delete every 10th key: leaves keep >1 key, so the fine path suffices.
  for (std::size_t i = 0; i < f.keys.size(); i += 10) {
    ops.push_back({OpKind::kDelete, f.keys[i], 0});
  }
  f.apply_to_oracle(ops);
  const auto stats = f.updater.apply(ops);
  EXPECT_EQ(stats.deletes, ops.size());
  EXPECT_EQ(stats.failed, 0u);
  f.check_consistent();
}

TEST(BatchUpdater, DeleteWholeLeafTakesCoarsePath) {
  UpdateFixture f(500, 8, 0.69, 11);
  // Delete an entire leaf's keys: the last one is a merge.
  const auto& tree = f.updater.tree();
  const std::uint32_t leaf = tree.first_leaf_index();
  const auto victims = tree.leaf_entries(leaf);
  ASSERT_GT(victims.size(), 1u);
  std::vector<UpdateOp> ops;
  for (const auto& e : victims) ops.push_back({OpKind::kDelete, e.key, 0});
  f.apply_to_oracle(ops);
  const auto stats = f.updater.apply(ops);
  EXPECT_GT(stats.coarse_path_ops, 0u);
  EXPECT_TRUE(stats.rebuilt);
  EXPECT_EQ(stats.failed, 0u);
  f.check_consistent();
}

TEST(BatchUpdater, InsertThenUpdateSameBatchUsesAux) {
  UpdateFixture f(1000, 8, 1.0, 12);
  const auto fresh = queries::make_missing_keys(f.keys, 5, 13);
  std::vector<UpdateOp> ops;
  for (Key k : fresh) ops.push_back({OpKind::kInsert, k, 1});
  // Updates to keys that now live in aux nodes.
  for (Key k : fresh) ops.push_back({OpKind::kUpdate, k, 42});
  f.apply_to_oracle(ops);
  const auto stats = f.updater.apply(ops);
  EXPECT_EQ(stats.failed, 0u);
  f.check_consistent();
  for (Key k : fresh) EXPECT_EQ(f.updater.tree().search(k).value(), 42u);
}

TEST(BatchUpdater, SequentialBatchesCompose) {
  UpdateFixture f(3000, 16, 0.8, 14);
  Xoshiro256 rng(15);
  for (int batch = 0; batch < 5; ++batch) {
    queries::BatchSpec spec;
    spec.size = 500;
    spec.insert_fraction = 0.2;
    spec.delete_fraction = 0.1;
    spec.seed = static_cast<std::uint64_t>(batch) + 100;
    // Build the batch against the updater's *current* key set.
    std::vector<Key> current;
    for (const auto& [k, v] : f.oracle) current.push_back(k);
    const auto ops = queries::make_update_batch(current, spec);
    f.apply_to_oracle(ops);
    f.updater.apply(ops);
    f.check_consistent();
  }
}

TEST(BatchUpdater, MultithreadedMatchesOracle) {
  // Batch < half the key set so updates sample without replacement and
  // the outcome is thread-schedule independent.
  UpdateFixture f(8000, 16, 0.9, 16);
  queries::BatchSpec spec;
  spec.size = 3000;
  spec.insert_fraction = 0.1;
  spec.seed = 17;
  const auto ops = queries::make_update_batch(f.keys, spec);
  f.apply_to_oracle(ops);
  const auto stats = f.updater.apply(ops, /*threads=*/4);
  EXPECT_EQ(stats.total_ops(), 3000u);
  f.check_consistent();
}

TEST(BatchUpdater, MultithreadedDisjointUpdatesKeepAllValues) {
  // Every op touches a distinct key, so the result is schedule-independent
  // even with many threads hammering the two-grained locks.
  UpdateFixture f(4000, 8, 1.0, 18);
  std::vector<UpdateOp> ops;
  for (std::size_t i = 0; i < f.keys.size(); i += 2) {
    ops.push_back({OpKind::kUpdate, f.keys[i], f.keys[i] ^ 0xF00D});
  }
  f.apply_to_oracle(ops);
  f.updater.apply(ops, 8);
  f.check_consistent();
}

TEST(BatchUpdater, ThreadedApplyKeepsPerKeyArrivalOrder) {
  // Chains of inserts, updates and deletes on one key, laid out back to
  // back: their outcome depends on the order they run in. A threaded
  // apply must keep each key's arrival order, so it matches the
  // one-thread apply (the arrival-order oracle) on every schedule.
  const auto keys = queries::make_tree_keys(4000, 21);
  const auto missing = queries::make_missing_keys(keys, 300, 22);
  Xoshiro256 rng(23);
  std::vector<UpdateOp> ops;
  for (std::size_t c = 0; c < 600; ++c) {
    const Key k = c % 2 == 0 ? missing[c / 2] : keys[rng.next_below(keys.size())];
    const std::uint64_t len = 2 + rng.next_below(4);
    for (std::uint64_t j = 0; j < len; ++j) {
      const auto kind = static_cast<OpKind>(rng.next_below(3));
      ops.push_back({kind, k, rng.next()});
    }
  }
  const HarmoniaTree base = HarmoniaTree::from_btree(btree::make_tree(keys, 8, 0.69));
  BatchUpdater one(base);
  const UpdateStats want = one.apply(ops, 1);
  ASSERT_GT(want.failed, 0u);
  ASSERT_TRUE(want.rebuilt);
  const auto want_entries = one.tree().range(0, kPadKey - 1);
  for (int rep = 0; rep < 50; ++rep) {
    for (unsigned threads = 2; threads <= 4; ++threads) {
      SCOPED_TRACE(::testing::Message() << "rep " << rep << ", threads " << threads);
      BatchUpdater u(base);
      const UpdateStats got = u.apply(ops, threads);
      ASSERT_EQ(got.updates, want.updates);
      ASSERT_EQ(got.inserts, want.inserts);
      ASSERT_EQ(got.deletes, want.deletes);
      ASSERT_EQ(got.failed, want.failed);
      ASSERT_EQ(got.fine_path_ops, want.fine_path_ops);
      ASSERT_EQ(got.coarse_path_ops, want.coarse_path_ops);
      ASSERT_EQ(got.aux_nodes, want.aux_nodes);
      ASSERT_EQ(got.moved_slots, want.moved_slots);
      const auto got_entries = u.tree().range(0, kPadKey - 1);
      ASSERT_EQ(got_entries.size(), want_entries.size());
      for (std::size_t i = 0; i < got_entries.size(); ++i) {
        ASSERT_EQ(got_entries[i].key, want_entries[i].key);
        ASSERT_EQ(got_entries[i].value, want_entries[i].value);
      }
      ASSERT_TRUE(std::ranges::equal(u.tree().key_region(), one.tree().key_region()));
    }
  }
}

TEST(BatchUpdater, RebuildOfUnchangedLeavesKeepsBulkLoadedShape) {
  // At fill 1.0 a full leaf sends an insert down the coarse path, which
  // moves the leaf into an auxiliary node; deleting the key again in the
  // same batch leaves that node with the leaf's own entries. The deferred
  // rebuild must then reproduce the bulk-loaded tree exactly.
  const auto keys = queries::make_tree_keys(1 << 14, 5);
  const HarmoniaTree base = HarmoniaTree::build(btree::entries_for(keys), 16, 1.0);
  Key key = 0;
  for (Key m : queries::make_missing_keys(keys, 64, 6)) {
    if (base.node_key_count(base.find_leaf(m)) == base.keys_per_node()) key = m;
  }
  ASSERT_NE(key, 0u) << "no missing key routes to a full leaf";
  BatchUpdater updater(base, 1.0);
  const std::vector<UpdateOp> ops{{OpKind::kInsert, key, 1}, {OpKind::kDelete, key, 0}};
  const UpdateStats stats = updater.apply(ops);
  ASSERT_TRUE(stats.rebuilt);
  ASSERT_EQ(stats.aux_nodes, 1u);
  const HarmoniaTree& got = updater.tree();
  ASSERT_EQ(got.height(), base.height());
  for (unsigned l = 0; l < base.height(); ++l) EXPECT_EQ(got.level_start(l), base.level_start(l));
  EXPECT_TRUE(std::ranges::equal(got.key_region(), base.key_region()));
  EXPECT_TRUE(std::ranges::equal(got.prefix_sum(), base.prefix_sum()));
  EXPECT_TRUE(std::ranges::equal(got.value_region(), base.value_region()));
}

TEST(BatchUpdater, StatsTimingsPopulated) {
  UpdateFixture f;
  std::vector<UpdateOp> ops{{OpKind::kUpdate, f.keys[0], 1}};
  const auto stats = f.updater.apply(ops);
  EXPECT_GE(stats.apply_seconds, 0.0);
  EXPECT_GE(stats.rebuild_seconds, 0.0);
  EXPECT_GT(stats.ops_per_second(), 0.0);
}

// Shards apply one after another on one host CPU, so merged stats must
// sum every count and wall time and OR the rebuilt flag.
TEST(UpdateStats, PlusEqualsMergesEveryField) {
  UpdateStats a;
  a.updates = 1;
  a.inserts = 2;
  a.deletes = 3;
  a.failed = 4;
  a.fine_path_ops = 5;
  a.coarse_path_ops = 6;
  a.coarse_retries = 7;
  a.aux_nodes = 8;
  a.moved_slots = 9;
  a.apply_seconds = 0.5;
  a.rebuild_seconds = 0.25;
  UpdateStats b = a;
  b.rebuilt = true;

  UpdateStats sum;
  (sum += a) += b;
  EXPECT_EQ(sum.updates, 2u);
  EXPECT_EQ(sum.inserts, 4u);
  EXPECT_EQ(sum.deletes, 6u);
  EXPECT_EQ(sum.failed, 8u);
  EXPECT_EQ(sum.fine_path_ops, 10u);
  EXPECT_EQ(sum.coarse_path_ops, 12u);
  EXPECT_EQ(sum.coarse_retries, 14u);
  EXPECT_EQ(sum.aux_nodes, 16u);
  EXPECT_EQ(sum.moved_slots, 18u);
  EXPECT_TRUE(sum.rebuilt);
  EXPECT_DOUBLE_EQ(sum.apply_seconds, 1.0);
  EXPECT_DOUBLE_EQ(sum.rebuild_seconds, 0.5);
  EXPECT_EQ(sum.total_ops(), a.total_ops() + b.total_ops());

  UpdateStats fresh;
  fresh += a;
  EXPECT_FALSE(fresh.rebuilt);  // false OR false
}

}  // namespace
}  // namespace harmonia
