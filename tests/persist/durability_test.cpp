// ShardDurability's write path: what it puts on disk and what a torn
// write takes off. Snapshot images stream from the tree into the file,
// so the file must hold exactly the bytes SnapshotStore::encode builds
// in memory, overlay sidecar included; apply_tear must chop only the
// last write, whether that was a truncating image write or an append
// to the log; and the recovery checkpoint must leave the shard
// directory holding exactly one epoch-0 image and an empty log.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "btree/btree.hpp"
#include "gpusim/device.hpp"
#include "harmonia/index.hpp"
#include "common/expect.hpp"
#include "harmonia/pipeline.hpp"
#include "persist/durability.hpp"
#include "persist/recovery.hpp"
#include "persist/snapshot_store.hpp"
#include "persist/update_log.hpp"
#include "queries/batch.hpp"
#include "queries/workload.hpp"
#include "serve/epoch_updater.hpp"
#include "test_dir.hpp"

namespace harmonia::persist {
namespace {

using queries::OpKind;
using queries::UpdateOp;

std::string read_file(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing_support::unique_test_dir();
    std::filesystem::remove_all(dir_);
    cfg_.dir = dir_.string();
    cfg_.snapshot_every = 2;
    cfg_.retain = 2;
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  DurabilityConfig cfg_;
};

gpusim::DeviceSpec test_spec() {
  auto spec = gpusim::titan_v();
  spec.num_sms = 4;
  spec.global_mem_bytes = 256 << 20;
  return spec;
}

/// Epoch `e`'s batch: fresh inserts (full leaves send them to the
/// overlay), an update and a delete of base keys.
std::vector<UpdateOp> batch_for(const std::vector<Key>& keys, std::uint64_t e) {
  std::vector<UpdateOp> ops;
  for (std::uint64_t i = 0; i < 6; ++i) {
    ops.push_back({OpKind::kInsert, keys.back() + 100 * e + i + 1, 1000 * e + i});
  }
  ops.push_back({OpKind::kUpdate, keys[e], 7 * e});
  ops.push_back({OpKind::kDelete, keys[40 + e], 0});
  return ops;
}

TEST_F(DurabilityTest, SnapshotFileEqualsEncodedImage) {
  const auto keys = queries::make_tree_keys(512, 7);
  IndexOptions opts;
  opts.fanout = 8;
  opts.fill_factor = 1.0;
  std::vector<btree::Entry> entries;
  for (Key k : keys) entries.push_back({k, btree::value_for_key(k)});
  gpusim::Device dev(test_spec());
  btree::BTree builder(opts.fanout);
  builder.bulk_load(entries, opts.fill_factor);
  HarmoniaIndex index(dev, HarmoniaTree::from_btree(builder), opts);
  index.set_overlay_capacity(64);

  DurabilityDomain domain(cfg_, 1);
  ShardDurability& dur = *domain.shard(0);
  std::string log;
  for (std::uint64_t e = 1; e <= 2; ++e) {
    const auto batch = batch_for(keys, e);
    dur.log_batch(e, batch, static_cast<double>(e));
    log += UpdateLog::encode(e, batch);
    const auto pr = index.patch_update(batch);
    ASSERT_FALSE(pr.exhausted);
    index.commit_patch();
    EXPECT_EQ(dur.maybe_snapshot(e, index, /*force=*/false, static_cast<double>(e) + 0.5), e == 2);
  }

  const TreeSnapshotExtras extras = index.snapshot_extras();
  ASSERT_FALSE(extras.overlay.empty()) << "the image must carry an overlay sidecar";
  const SnapshotStore store(dur.dir());
  EXPECT_EQ(read_file(store.path_for(2)), SnapshotStore::encode(index.tree(), extras));
  EXPECT_EQ(read_file(dur.dir() / "update.log"), log);
  EXPECT_EQ(store.list(), (std::vector<std::uint64_t>{2}));
}

// A snapshot's last write is its image (truncating, offset 0): a tear
// shortens the newest image by exactly k, and load_newest falls back to
// the intact one before it.
TEST_F(DurabilityTest, TearAfterSnapshotShortensItsLastWrite) {
  const auto keys = queries::make_tree_keys(200, 3);
  gpusim::Device dev(test_spec());
  std::vector<btree::Entry> entries;
  for (Key k : keys) entries.push_back({k, btree::value_for_key(k)});
  HarmoniaIndex index = HarmoniaIndex::build(dev, entries, {.fanout = 8});

  DurabilityDomain domain(cfg_, 1);
  ShardDurability& dur = *domain.shard(0);
  for (std::uint64_t e = 1; e <= 2; ++e) {
    const auto batch = batch_for(keys, e);
    dur.log_batch(e, batch, static_cast<double>(e));
    index.commit_staged(index.stage_update(batch));
    ASSERT_TRUE(dur.maybe_snapshot(e, index, /*force=*/true, static_cast<double>(e) + 0.5));
  }

  const SnapshotStore store(dur.dir());
  const auto older_size = std::filesystem::file_size(store.path_for(1));
  const auto newest_size = std::filesystem::file_size(store.path_for(2));
  domain.apply_crash(0, 5);
  EXPECT_EQ(std::filesystem::file_size(store.path_for(2)), newest_size - 5);
  EXPECT_EQ(std::filesystem::file_size(store.path_for(1)), older_size);
  const auto loaded = store.load_newest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 1u);
  EXPECT_EQ(loaded->discarded, 1u);
}

// One retained image would leave a torn newest snapshot nothing to fall
// back to.
TEST_F(DurabilityTest, RetainBelowTwoIsRejected) {
  cfg_.retain = 1;
  EXPECT_THROW(DurabilityDomain(cfg_, 1), ContractViolation);
}

// The checkpoint is a new generation's whole catalogue: whatever images
// the crashed generation left (here epochs 2 and 4, both newer than 0),
// recovery leaves exactly `snap-000000000000.img` and an empty log.
TEST_F(DurabilityTest, RecoveryCheckpointLeavesOnlyEpochZero) {
  const auto keys = queries::make_tree_keys(200, 9);
  std::vector<btree::Entry> entries;
  for (Key k : keys) entries.push_back({k, btree::value_for_key(k)});
  {
    gpusim::Device dev(test_spec());
    HarmoniaIndex index = HarmoniaIndex::build(dev, entries, {.fanout = 8});
    DurabilityDomain domain(cfg_, 1);
    ShardDurability& dur = *domain.shard(0);
    for (std::uint64_t e = 1; e <= 5; ++e) {
      const auto batch = batch_for(keys, e);
      dur.log_batch(e, batch, static_cast<double>(e));
      index.commit_staged(index.stage_update(batch));
      dur.maybe_snapshot(e, index, /*force=*/false, static_cast<double>(e) + 0.5);
    }
    ASSERT_EQ(SnapshotStore(dur.dir()).list(), (std::vector<std::uint64_t>{4, 2}));
  }

  cfg_.recover = true;
  const RecoveryManager rm(cfg_, serve::EpochConfig{}.seconds_per_op);
  RecoveryManager::Materials mat = rm.load_shard(0);
  ASSERT_TRUE(mat.snapshot.has_value());
  gpusim::Device dev2(test_spec());
  HarmoniaIndex index2(dev2, std::move(mat.snapshot->tree), {.fanout = 8});
  const RecoveryReport rep = rm.finish(std::move(mat), index2, TransferModel{}, keys.size());
  EXPECT_EQ(rep.snapshot_epoch, 4u);
  EXPECT_EQ(rep.recovered_epoch, 5u);

  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(cfg_.shard_dir(0)))
    files.push_back(entry.path().filename().string());
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{"snap-000000000000.img", "update.log"}));
  EXPECT_EQ(std::filesystem::file_size(cfg_.shard_dir(0) / "update.log"), 0u);
  const auto loaded = SnapshotStore(cfg_.shard_dir(0)).load_newest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->epoch, 0u);
  EXPECT_EQ(loaded->discarded, 0u);
}

TEST_F(DurabilityTest, TearAfterLogAppendCutsOnlyTheLastRecord) {
  const auto keys = queries::make_tree_keys(64, 5);
  const auto b1 = batch_for(keys, 1);
  const auto b2 = batch_for(keys, 2);
  const std::uint64_t first = UpdateLog::encode(1, b1).size();
  const std::uint64_t second = UpdateLog::encode(2, b2).size();
  const std::uint64_t tears[] = {1, second - 1, second, second + 100};
  for (const std::uint64_t torn : tears) {
    SCOPED_TRACE(::testing::Message() << "torn " << torn);
    DurabilityDomain domain(cfg_, 1);  // a fresh start wipes the log
    ShardDurability& dur = *domain.shard(0);
    dur.log_batch(1, b1, 1.0);
    dur.log_batch(2, b2, 2.0);
    const auto log_path = dur.dir() / "update.log";
    ASSERT_EQ(std::filesystem::file_size(log_path), first + second);

    domain.apply_crash(0, torn);
    EXPECT_EQ(std::filesystem::file_size(log_path), first + second - std::min(torn, second));
    const LogReplay replay = UpdateLog::replay(log_path);
    ASSERT_EQ(replay.batches.size(), 1u);
    EXPECT_EQ(replay.batches[0].epoch, 1u);
    EXPECT_EQ(replay.valid_bytes, first);
    EXPECT_EQ(replay.torn_tail, torn < second);
  }
}

}  // namespace
}  // namespace harmonia::persist
