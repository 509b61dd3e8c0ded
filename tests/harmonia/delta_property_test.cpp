// Property tests for the incremental update path's invariants
// (docs/serving.md#epoch-pipeline):
//  - the key region stays sorted-with-gaps after every patch,
//  - prefix sums / PSA traversal stay consistent (patches never change
//    the structure, so the committed child region keeps working),
//  - the overlay never exceeds its bound,
//  - a compaction epoch's image is bit-identical to a direct batch apply
//    of the same logical contents,
//  - commit_patch leaves the device byte-identical to the host mirror.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <type_traits>
#include <vector>

#include "btree/btree.hpp"
#include "common/rng.hpp"
#include "harmonia/index.hpp"
#include "queries/batch.hpp"
#include "queries/workload.hpp"

namespace harmonia {
namespace {

using queries::OpKind;
using queries::UpdateOp;

// commit_staged installs a staged update at a serving batch boundary; a
// throwing move there would leave the image half-swapped.
static_assert(std::is_nothrow_move_constructible_v<HarmoniaIndex::StagedUpdate>);
static_assert(std::is_nothrow_move_assignable_v<HarmoniaIndex::StagedUpdate>);

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

void apply_oracle(std::map<Key, Value>& oracle, std::span<const UpdateOp> ops) {
  for (const auto& op : ops) {
    switch (op.kind) {
      case OpKind::kUpdate: {
        auto it = oracle.find(op.key);
        if (it != oracle.end()) it->second = op.value;
        break;
      }
      case OpKind::kInsert:
        oracle[op.key] = op.value;
        break;
      case OpKind::kDelete:
        oracle.erase(op.key);
        break;
    }
  }
}

UpdateOp random_op(Xoshiro256& rng, Key key_span) {
  const Key k = 1 + rng.next_below(key_span);
  const Value v = 1 + (rng.next() >> 1);
  const double r = rng.next_double();
  if (r < 0.45) return {OpKind::kInsert, k, v};
  if (r < 0.70) return {OpKind::kUpdate, k, v};
  return {OpKind::kDelete, k, 0};
}

/// Sorted-with-gaps: within the leaf level, real keys (pads excluded)
/// must be strictly increasing across the whole consecutive key region.
void expect_sorted_with_gaps(const HarmoniaTree& t) {
  const unsigned kpn = t.keys_per_node();
  const auto region = t.key_region();
  Key prev = 0;
  bool have_prev = false;
  for (std::uint32_t leaf = t.first_leaf_index(); leaf < t.num_nodes(); ++leaf) {
    bool saw_pad = false;
    for (unsigned s = 0; s < kpn; ++s) {
      const Key k = region[static_cast<std::size_t>(leaf) * kpn + s];
      if (k == kPadKey) {
        saw_pad = true;
        continue;
      }
      // Pads only trail real keys inside a node (the gap sits at the end).
      ASSERT_FALSE(saw_pad) << "real key after pad in leaf " << leaf;
      if (have_prev) {
        ASSERT_LT(prev, k) << "leaf " << leaf << " slot " << s;
      }
      prev = k;
      have_prev = true;
    }
  }
}

/// Reads the device's key/value/prefix-sum regions (and overlay arrays)
/// back and compares them to the host mirror byte for byte.
void expect_device_matches_host(HarmoniaIndex& index) {
  auto& mem = index.device().memory();
  const auto& t = index.tree();
  const auto& img = index.image();

  std::vector<Key> dkeys(t.key_region().size());
  mem.copy_to_host(std::span<Key>(dkeys), img.key_region);
  ASSERT_TRUE(std::equal(dkeys.begin(), dkeys.end(), t.key_region().begin()))
      << "device key region diverged from host";

  std::vector<Value> dvals(t.value_region().size());
  mem.copy_to_host(std::span<Value>(dvals), img.value_region);
  ASSERT_TRUE(std::equal(dvals.begin(), dvals.end(), t.value_region().begin()))
      << "device value region diverged from host";

  std::vector<std::uint32_t> dps(t.prefix_sum().size());
  mem.copy_to_host(std::span<std::uint32_t>(dps), img.ps_global);
  ASSERT_TRUE(std::equal(dps.begin(), dps.end(), t.prefix_sum().begin()))
      << "device prefix-sum region diverged from host";

  // Overlay arrays: reconstruct the mirror through overlay_as_ops (live
  // entries carry values; tombstones read back with the flag set).
  ASSERT_EQ(img.overlay.count, index.overlay_size());
  if (img.overlay.count > 0) {
    const auto ops = index.overlay_as_ops();
    ASSERT_EQ(ops.size(), img.overlay.count);
    for (std::uint32_t i = 0; i < img.overlay.count; ++i) {
      const Key k = mem.read<Key>(img.overlay.key_addr(i));
      const auto tomb = mem.read<std::uint8_t>(img.overlay.tombstone_addr(i));
      ASSERT_EQ(k, ops[i].key) << "overlay slot " << i;
      ASSERT_EQ(tomb != 0, ops[i].kind == OpKind::kDelete) << "overlay slot " << i;
      if (!tomb) {
        ASSERT_EQ(mem.read<Value>(img.overlay.value_addr(i)), ops[i].value)
            << "overlay slot " << i;
      }
    }
  }
}

TEST(DeltaProperty, SortedWithGapsAndPsaConsistentAfterEveryPatch) {
  gpusim::Device dev(test_spec());
  const auto keys = queries::make_tree_keys(2000, 21);
  IndexOptions opts;
  opts.fanout = 16;
  opts.fill_factor = 0.65;
  auto index = HarmoniaIndex::build(dev, entries_for(keys), opts);
  index.set_overlay_capacity(16);

  std::map<Key, Value> oracle;
  for (Key k : keys) oracle[k] = btree::value_for_key(k);
  const Key key_span = keys.back() + keys.back() / 10;

  Xoshiro256 rng(77);
  for (int round = 0; round < 200; ++round) {
    std::vector<UpdateOp> batch;
    for (int i = 0; i < 6; ++i) batch.push_back(random_op(rng, key_span));
    const auto pr = index.patch_update(batch);
    apply_oracle(oracle, std::span(batch).first(pr.absorbed));
    if (pr.exhausted) {
      const auto rest = std::span(batch).subspan(pr.absorbed);
      auto fold = index.overlay_as_ops();
      fold.insert(fold.end(), rest.begin(), rest.end());
      index.discard_patch();
      auto staged = index.stage_update(fold);
      index.commit_staged(std::move(staged));
      apply_oracle(oracle, rest);
    } else {
      index.commit_patch();
    }

    // Invariants after every boundary: full tree validation, the gap
    // discipline, and (cheap spot check) the prefix-sum traversal still
    // routes every probe to the right leaf — find_leaf + search_host must
    // agree with the oracle even for keys living only in the overlay.
    index.tree().validate();
    ASSERT_NO_FATAL_FAILURE(expect_sorted_with_gaps(index.tree()));
    for (int i = 0; i < 6; ++i) {
      const Key k = 1 + rng.next_below(key_span);
      const auto got = index.search_host(k);
      const auto it = oracle.find(k);
      if (it == oracle.end()) {
        ASSERT_FALSE(got.has_value()) << "key " << k;
      } else {
        ASSERT_EQ(got.value_or(kNotFound), it->second) << "key " << k;
      }
    }
  }
}

TEST(DeltaProperty, OverlayNeverExceedsBound) {
  gpusim::Device dev(test_spec());
  const auto keys = queries::make_tree_keys(500, 31);
  IndexOptions opts;
  opts.fanout = 16;
  opts.fill_factor = 1.0;  // no gaps: every fresh insert must overlay
  auto index = HarmoniaIndex::build(dev, entries_for(keys), opts);
  index.set_overlay_capacity(4);

  // Fresh keys beyond the bound: the first `capacity` absorb, the rest
  // exhaust; the overlay never exceeds the bound and unabsorbed ops
  // leave no trace. Targets stay in the first half of the key space so
  // every one maps to a full interior leaf (the tail leaf keeps natural
  // gaps even at fill 1.0).
  const auto missing = queries::make_missing_keys(keys, 200, 7);
  std::vector<UpdateOp> batch;
  for (Key k : missing) {
    if (k >= keys[keys.size() / 2]) continue;
    batch.push_back({OpKind::kInsert, k, 100});
    if (batch.size() == 10) break;
  }
  ASSERT_EQ(batch.size(), 10u);
  const auto pr = index.patch_update(batch);
  EXPECT_TRUE(pr.exhausted);
  EXPECT_EQ(pr.absorbed, 4u);
  EXPECT_EQ(index.overlay_size(), 4u);
  for (std::size_t i = pr.absorbed; i < batch.size(); ++i) {
    EXPECT_FALSE(index.search_host(batch[i].key).has_value())
        << "unabsorbed op leaked into the index: " << batch[i].key;
  }
  index.commit_patch();
  EXPECT_LE(index.overlay_size(), index.overlay_capacity());

  // Raising the bound reallocates the device arrays and admits more.
  index.set_overlay_capacity(8);
  const auto pr2 = index.patch_update(std::span(batch).subspan(pr.absorbed));
  EXPECT_EQ(pr2.absorbed, 4u);
  EXPECT_TRUE(pr2.exhausted);  // 8 total: slots 5..8 absorb, 9 and 10 exhaust
  EXPECT_EQ(index.overlay_size(), 8u);
  index.commit_patch();
}

TEST(DeltaProperty, CompactionImageBitIdenticalToDirectApply) {
  gpusim::Device dev_a(test_spec());
  gpusim::Device dev_b(test_spec());
  const auto keys = queries::make_tree_keys(1500, 41);
  IndexOptions opts;
  opts.fanout = 16;
  opts.fill_factor = 0.7;
  auto a = HarmoniaIndex::build(dev_a, entries_for(keys), opts);
  a.set_overlay_capacity(8);

  std::map<Key, Value> oracle;
  for (Key k : keys) oracle[k] = btree::value_for_key(k);
  const Key key_span = keys.back() + keys.back() / 10;

  // Drive A through patch rounds until a batch exhausts.
  Xoshiro256 rng(55);
  std::vector<UpdateOp> batch;
  HarmoniaIndex::PatchResult pr;
  for (;;) {
    batch.clear();
    for (int i = 0; i < 8; ++i) batch.push_back(random_op(rng, key_span));
    pr = a.patch_update(batch);
    apply_oracle(oracle, std::span(batch).first(pr.absorbed));
    if (pr.exhausted) break;
    a.commit_patch();
  }

  // At the exhaustion point: B wraps a copy of A's patched host tree and
  // applies the same fold batch directly (no overlay, no staging). The
  // compacted image must be bit-identical — stage_update/commit_staged
  // adds nothing beyond BatchUpdater::apply on the same inputs.
  const auto rest = std::span(batch).subspan(pr.absorbed);
  auto fold = a.overlay_as_ops();
  fold.insert(fold.end(), rest.begin(), rest.end());
  HarmoniaIndex b(dev_b, HarmoniaTree(a.tree()), opts);
  b.set_overlay_capacity(8);
  b.update_batch(fold);

  a.discard_patch();
  auto staged = a.stage_update(fold);
  a.commit_staged(std::move(staged));
  apply_oracle(oracle, rest);

  ASSERT_EQ(a.tree().num_keys(), b.tree().num_keys());
  ASSERT_TRUE(std::equal(a.tree().key_region().begin(), a.tree().key_region().end(),
                         b.tree().key_region().begin(), b.tree().key_region().end()))
      << "compacted key region differs from direct apply";
  ASSERT_TRUE(std::equal(a.tree().value_region().begin(), a.tree().value_region().end(),
                         b.tree().value_region().begin(), b.tree().value_region().end()))
      << "compacted value region differs from direct apply";
  ASSERT_TRUE(std::equal(a.tree().prefix_sum().begin(), a.tree().prefix_sum().end(),
                         b.tree().prefix_sum().begin(), b.tree().prefix_sum().end()))
      << "compacted prefix-sum region differs from direct apply";

  // And the logical contents match the oracle exactly.
  ASSERT_EQ(a.overlay_size(), 0u);
  const auto scan = a.range_host(0, kPadKey - 1);
  ASSERT_EQ(scan.size(), oracle.size());
  std::size_t i = 0;
  for (const auto& [k, v] : oracle) {
    ASSERT_EQ(scan[i].key, k);
    ASSERT_EQ(scan[i].value, v);
    ++i;
  }
}

TEST(DeltaProperty, CommitPatchLeavesDeviceByteIdenticalToHost) {
  gpusim::Device dev(test_spec());
  const auto keys = queries::make_tree_keys(1200, 61);
  IndexOptions opts;
  opts.fanout = 16;
  opts.fill_factor = 0.7;
  auto index = HarmoniaIndex::build(dev, entries_for(keys), opts);
  index.set_overlay_capacity(12);

  const Key key_span = keys.back() + keys.back() / 10;
  Xoshiro256 rng(91);
  std::uint64_t total_patch_bytes = 0;
  for (int round = 0; round < 40; ++round) {
    std::vector<UpdateOp> batch;
    for (int i = 0; i < 6; ++i) batch.push_back(random_op(rng, key_span));
    const auto pr = index.patch_update(batch);
    if (pr.exhausted) {
      const auto rest = std::span(batch).subspan(pr.absorbed);
      auto fold = index.overlay_as_ops();
      fold.insert(fold.end(), rest.begin(), rest.end());
      index.discard_patch();
      auto staged = index.stage_update(fold);
      index.commit_staged(std::move(staged));
    } else {
      // The byte estimate is what the serving layer charges the link:
      // strictly less than a full image upload, monotone in dirt.
      const std::uint64_t full_bytes =
          index.tree().key_region().size_bytes() +
          index.tree().value_region().size_bytes() +
          index.tree().prefix_sum().size() * sizeof(std::uint32_t);
      EXPECT_LT(pr.patch_bytes, full_bytes);
      // A batch whose absorbed ops all failed (missing-key updates or
      // deletes) legitimately queues nothing.
      if (index.patch_pending()) {
        EXPECT_GT(pr.patch_bytes, 0u);
      }
      total_patch_bytes += pr.patch_bytes;
      index.commit_patch();
    }
    ASSERT_NO_FATAL_FAILURE(expect_device_matches_host(index));
  }
  EXPECT_GT(total_patch_bytes, 0u);

  // resync_device (the fault-repair path) must preserve the overlay.
  const auto before = index.overlay_as_ops();
  index.resync_device();
  const auto after = index.overlay_as_ops();
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].key, after[i].key);
    EXPECT_EQ(before[i].value, after[i].value);
  }
  ASSERT_NO_FATAL_FAILURE(expect_device_matches_host(index));
}

}  // namespace
}  // namespace harmonia
