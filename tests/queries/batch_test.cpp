#include "queries/batch.hpp"

#include <gtest/gtest.h>

#include "common/expect.hpp"

#include <string>
#include <unordered_set>
#include <vector>

#include "queries/workload.hpp"

namespace harmonia::queries {
namespace {

TEST(Batch, PaperMixFractions) {
  // Fig. 14 workload: 5% inserts, 95% updates.
  const auto keys = make_tree_keys(10000, 1);
  BatchSpec spec;
  spec.size = 10000;
  spec.insert_fraction = 0.05;
  spec.seed = 2;
  const auto ops = make_update_batch(keys, spec);
  ASSERT_EQ(ops.size(), 10000u);
  std::uint64_t inserts = 0, updates = 0, deletes = 0;
  for (const auto& op : ops) {
    if (op.kind == OpKind::kInsert) ++inserts;
    if (op.kind == OpKind::kUpdate) ++updates;
    if (op.kind == OpKind::kDelete) ++deletes;
  }
  EXPECT_EQ(inserts, 500u);
  EXPECT_EQ(updates, 9500u);
  EXPECT_EQ(deletes, 0u);
}

TEST(Batch, InsertKeysAreNovelAndDistinct) {
  const auto keys = make_tree_keys(5000, 3);
  std::unordered_set<std::uint64_t> existing(keys.begin(), keys.end());
  BatchSpec spec;
  spec.size = 4000;
  spec.insert_fraction = 0.25;
  spec.seed = 4;
  const auto ops = make_update_batch(keys, spec);
  std::unordered_set<std::uint64_t> inserted;
  for (const auto& op : ops) {
    if (op.kind != OpKind::kInsert) continue;
    EXPECT_FALSE(existing.count(op.key));
    EXPECT_TRUE(inserted.insert(op.key).second) << "duplicate insert key";
  }
  EXPECT_EQ(inserted.size(), 1000u);
}

TEST(Batch, UpdatesTargetExistingKeys) {
  const auto keys = make_tree_keys(2000, 5);
  std::unordered_set<std::uint64_t> existing(keys.begin(), keys.end());
  BatchSpec spec;
  spec.size = 1000;
  spec.seed = 6;
  const auto ops = make_update_batch(keys, spec);
  for (const auto& op : ops) {
    if (op.kind == OpKind::kUpdate) {
      EXPECT_TRUE(existing.count(op.key));
    }
  }
}

TEST(Batch, DeletesDistinctExistingKeys) {
  const auto keys = make_tree_keys(2000, 7);
  std::unordered_set<std::uint64_t> existing(keys.begin(), keys.end());
  BatchSpec spec;
  spec.size = 1000;
  spec.insert_fraction = 0.0;
  spec.delete_fraction = 0.2;
  spec.seed = 8;
  const auto ops = make_update_batch(keys, spec);
  std::unordered_set<std::uint64_t> deleted;
  for (const auto& op : ops) {
    if (op.kind != OpKind::kDelete) continue;
    EXPECT_TRUE(existing.count(op.key));
    EXPECT_TRUE(deleted.insert(op.key).second);
  }
  EXPECT_EQ(deleted.size(), 200u);
}

TEST(Batch, KindsInterleaved) {
  const auto keys = make_tree_keys(2000, 9);
  BatchSpec spec;
  spec.size = 2000;
  spec.insert_fraction = 0.5;
  spec.seed = 10;
  const auto ops = make_update_batch(keys, spec);
  // After shuffling, the first half must contain both kinds.
  bool saw_insert = false, saw_update = false;
  for (std::size_t i = 0; i < ops.size() / 2; ++i) {
    saw_insert |= ops[i].kind == OpKind::kInsert;
    saw_update |= ops[i].kind == OpKind::kUpdate;
  }
  EXPECT_TRUE(saw_insert);
  EXPECT_TRUE(saw_update);
}

TEST(Batch, InvalidFractionsThrow) {
  const auto keys = make_tree_keys(100, 11);
  BatchSpec spec;
  spec.insert_fraction = 0.8;
  spec.delete_fraction = 0.3;
  EXPECT_THROW(make_update_batch(keys, spec), ContractViolation);
}

TEST(Batch, Deterministic) {
  const auto keys = make_tree_keys(1000, 12);
  BatchSpec spec;
  spec.size = 500;
  spec.insert_fraction = 0.1;
  spec.seed = 13;
  const auto a = make_update_batch(keys, spec);
  const auto b = make_update_batch(keys, spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].value, b[i].value);
  }
}

// The generator draws distinct deletes and distinct gap inserts until it
// has enough; a batch that needs more than exist must be refused, not spin.
TEST(Batch, MoreDeletesThanKeysThrows) {
  const auto keys = make_tree_keys(100, 9);
  BatchSpec spec;
  spec.size = 200;
  spec.insert_fraction = 0.0;
  spec.delete_fraction = 0.9;  // 180 distinct deletes of 100 keys
  try {
    make_update_batch(keys, spec);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("180"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("100"), std::string::npos) << e.what();
  }
  // Every key deleted once is still a valid batch.
  spec.size = 100;
  spec.delete_fraction = 1.0;
  EXPECT_EQ(make_update_batch(keys, spec).size(), 100u);
}

TEST(Batch, MoreInsertsThanGapKeysThrows) {
  // 0, 1, 2, 5, 9: the novel keys between them are 3, 4, 6, 7 and 8.
  const std::vector<std::uint64_t> keys{0, 1, 2, 5, 9};
  BatchSpec spec;
  spec.size = 6;
  spec.insert_fraction = 1.0;
  try {
    make_update_batch(keys, spec);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("6 distinct inserts"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("only 5"), std::string::npos) << e.what();
  }
  spec.size = 5;
  std::unordered_set<std::uint64_t> inserted;
  for (const auto& op : make_update_batch(keys, spec)) inserted.insert(op.key);
  EXPECT_EQ(inserted, (std::unordered_set<std::uint64_t>{3, 4, 6, 7, 8}));
  // Dense keys leave no gap at all.
  const std::vector<std::uint64_t> dense{10, 11, 12, 13};
  spec.size = 1;
  EXPECT_THROW(make_update_batch(dense, spec), ContractViolation);
}

TEST(Batch, OneKeyHasNoGapToInsertInto) {
  const std::vector<std::uint64_t> keys{42};
  BatchSpec spec;
  spec.size = 4;
  spec.insert_fraction = 0.5;
  EXPECT_THROW(make_update_batch(keys, spec), ContractViolation);
  // Updates and a delete of the one key need no gap.
  spec.insert_fraction = 0.0;
  spec.delete_fraction = 0.25;
  EXPECT_EQ(make_update_batch(keys, spec).size(), 4u);
}

}  // namespace
}  // namespace harmonia::queries
