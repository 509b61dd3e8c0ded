// Differential fuzz harness for the incremental update path
// (docs/serving.md#epoch-pipeline): seeded random insert/update/delete
// batches drive patch_update/commit_patch with natural exhaustion
// compactions, while a std::map oracle tracks the logical contents.
// Device search/range/scan kernels and the host-side oracles are checked
// against the map across >= 1000 patch/compaction boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "btree/btree.hpp"
#include "common/rng.hpp"
#include "harmonia/index.hpp"
#include "queries/batch.hpp"
#include "queries/workload.hpp"
#include "serving_oracle.hpp"

namespace harmonia {
namespace {

using queries::OpKind;
using queries::UpdateOp;

using namespace testing_support;

UpdateOp random_op(Xoshiro256& rng, Key key_span) {
  const Key k = 1 + rng.next_below(key_span);
  const Value v = 1 + (rng.next() >> 1);  // never collides with kNotFound
  const double r = rng.next_double();
  if (r < 0.45) return {OpKind::kInsert, k, v};
  if (r < 0.70) return {OpKind::kUpdate, k, v};
  return {OpKind::kDelete, k, 0};
}

/// Random sample of keys: half drawn from the oracle (hits), half from
/// the raw key span (mostly misses).
std::vector<Key> sample_keys(Xoshiro256& rng, const Oracle& oracle,
                             Key key_span, std::size_t n) {
  std::vector<Key> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 2 == 0 && !oracle.empty()) {
      auto it = oracle.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.next_below(oracle.size())));
      out.push_back(it->first);
    } else {
      out.push_back(1 + rng.next_below(key_span));
    }
  }
  return out;
}

/// Device-vs-oracle check: a point-lookup batch, one range query, and
/// one online scan per call.
void verify_device(HarmoniaIndex& index, const Oracle& oracle,
                   Xoshiro256& rng, Key key_span) {
  // Point lookups.
  const auto qs = sample_keys(rng, oracle, key_span, 48);
  const auto result = index.search(qs);
  ASSERT_EQ(result.values.size(), qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const auto it = oracle.find(qs[i]);
    const Value want = it == oracle.end() ? kNotFound : it->second;
    ASSERT_EQ(result.values[i], want) << "search key " << qs[i];
  }

  // One range query against the oracle slice (truncated to max_results).
  const unsigned max_results = 64;
  const Key lo = 1 + rng.next_below(key_span);
  const Key hi = lo + key_span / 40;
  const auto ranged = index.range_device({&lo, 1}, {&hi, 1}, max_results);
  std::vector<Value> want;
  for (auto it = oracle.lower_bound(lo); it != oracle.end() && it->first <= hi; ++it) {
    if (want.size() == max_results) break;
    want.push_back(it->second);
  }
  ASSERT_EQ(ranged.values[0], want) << "range [" << lo << ", " << hi << "]";

  // One online scan: first n values with key >= lo.
  const std::uint32_t n = 1 + static_cast<std::uint32_t>(rng.next_below(24));
  const auto scanned = index.scan_device({&lo, 1}, {&n, 1});
  std::vector<Value> swant;
  for (auto it = oracle.lower_bound(lo); it != oracle.end() && swant.size() < n; ++it) {
    swant.push_back(it->second);
  }
  ASSERT_EQ(scanned.values[0], swant) << "scan lo " << lo << " n " << n;
}

void verify_host(const HarmoniaIndex& index, const Oracle& oracle,
                 Xoshiro256& rng, Key key_span) {
  for (Key k : sample_keys(rng, oracle, key_span, 8)) {
    const auto got = index.search_host(k);
    const auto it = oracle.find(k);
    if (it == oracle.end()) {
      ASSERT_FALSE(got.has_value()) << "host key " << k;
    } else {
      ASSERT_TRUE(got.has_value()) << "host key " << k;
      ASSERT_EQ(*got, it->second) << "host key " << k;
    }
  }
}

/// The serving layer's compaction fallback, inlined: fold the overlay
/// plus the unabsorbed tail into a staged batch and commit it.
void compact(HarmoniaIndex& index, std::span<const UpdateOp> rest) {
  auto fold = index.overlay_as_ops();
  fold.insert(fold.end(), rest.begin(), rest.end());
  index.discard_patch();
  auto staged = index.stage_update(fold);
  index.commit_staged(std::move(staged));
}

TEST(DeltaFuzz, DifferentialSingleDevice) {
  gpusim::Device dev(small_device(kServerDeviceBytes));
  const auto keys = queries::make_tree_keys(3000, 11);
  IndexOptions opts;
  opts.fanout = 16;
  opts.fill_factor = 0.7;
  auto index = HarmoniaIndex::build(dev, entries_for(keys), opts);
  index.set_overlay_capacity(24);

  Oracle oracle = initial_oracle(keys);
  const Key key_span = keys.back() + keys.back() / 10;

  Xoshiro256 rng(2026);
  int patch_epochs = 0;
  int compaction_epochs = 0;

  for (int round = 0; round < 1100; ++round) {
    std::vector<UpdateOp> batch;
    for (int i = 0; i < 8; ++i) batch.push_back(random_op(rng, key_span));

    const auto pr = index.patch_update(batch);
    apply_ops(oracle, std::span(batch).first(pr.absorbed));
    if (pr.exhausted) {
      ASSERT_LT(pr.absorbed, batch.size());
      const auto rest = std::span(batch).subspan(pr.absorbed);
      compact(index, rest);
      apply_ops(oracle, rest);
      ++compaction_epochs;
      ASSERT_EQ(index.overlay_size(), 0u);
    } else {
      ASSERT_EQ(pr.absorbed, batch.size());
      index.commit_patch();
      ++patch_epochs;
    }
    ASSERT_LE(index.overlay_size(), index.overlay_capacity());
    ASSERT_FALSE(index.patch_pending());

    verify_host(index, oracle, rng, key_span);
    if (round % 16 == 0) {
      ASSERT_NO_FATAL_FAILURE(verify_device(index, oracle, rng, key_span));
      index.tree().validate();
    }
    // Periodically exercise the full-batch path too: update_batch must
    // fold a live overlay before applying (replayed keys stay visible).
    if (round % 250 == 249) {
      std::vector<UpdateOp> big;
      for (int i = 0; i < 32; ++i) big.push_back(random_op(rng, key_span));
      index.update_batch(big);
      apply_ops(oracle, big);
      ASSERT_EQ(index.overlay_size(), 0u);
      ASSERT_NO_FATAL_FAILURE(verify_device(index, oracle, rng, key_span));
    }
  }

  EXPECT_GE(patch_epochs + compaction_epochs, 1000);
  EXPECT_GT(patch_epochs, 0) << "fuzz never took the patch path";
  EXPECT_GT(compaction_epochs, 0) << "fuzz never exhausted into a compaction";

  // Final exhaustive sweep: every oracle key on the device, a full-range
  // host scan, and tree invariants.
  index.tree().validate();
  std::vector<Key> all;
  for (const auto& [k, v] : oracle) all.push_back(k);
  const auto result = index.search(all);
  std::size_t i = 0;
  for (const auto& [k, v] : oracle) {
    ASSERT_EQ(result.values[i], v) << "final sweep key " << k;
    ++i;
  }
  const auto scan = index.range_host(0, kPadKey - 1);
  ASSERT_EQ(scan.size(), oracle.size());
  i = 0;
  for (const auto& [k, v] : oracle) {
    ASSERT_EQ(scan[i].key, k);
    ASSERT_EQ(scan[i].value, v);
    ++i;
  }
}

// A zero-capacity overlay degenerates gracefully: value updates and
// gap-absorbed inserts still patch in place, and every structural op the
// gaps cannot take exhausts immediately (compaction epoch).
TEST(DeltaFuzz, ZeroCapacityOverlayFallsBackToCompaction) {
  gpusim::Device dev(small_device(kServerDeviceBytes));
  const auto keys = queries::make_tree_keys(600, 5);
  IndexOptions opts;
  opts.fanout = 16;
  opts.fill_factor = 1.0;  // no gaps either: inserts must exhaust
  auto index = HarmoniaIndex::build(dev, entries_for(keys), opts);

  Oracle oracle = initial_oracle(keys);

  // A fresh key cannot land anywhere: full leaves, no overlay.
  const UpdateOp ins{OpKind::kInsert, keys.back() + 1, 7};
  auto pr = index.patch_update({&ins, 1});
  EXPECT_TRUE(pr.exhausted);
  EXPECT_EQ(pr.absorbed, 0u);
  compact(index, {&ins, 1});
  apply_ops(oracle, {&ins, 1});

  // Value updates still take the in-place path.
  const UpdateOp upd{OpKind::kUpdate, keys.front(), 9};
  pr = index.patch_update({&upd, 1});
  EXPECT_FALSE(pr.exhausted);
  EXPECT_EQ(pr.absorbed, 1u);
  index.commit_patch();
  apply_ops(oracle, {&upd, 1});

  Xoshiro256 rng(3);
  ASSERT_NO_FATAL_FAILURE(verify_device(index, oracle, rng, keys.back() + 10));
}

// Tombstone/resurrection torture: delete-reinsert-delete cycles over a
// small hot set stress the overlay's shadowing rules (a re-inserted key
// must not resurrect a stale base copy after a later delete).
TEST(DeltaFuzz, TombstoneResurrectionCycles) {
  gpusim::Device dev(small_device(kServerDeviceBytes));
  const auto keys = queries::make_tree_keys(800, 9);
  IndexOptions opts;
  opts.fanout = 16;
  opts.fill_factor = 1.0;  // full leaves: deletes of singleton keys overlay
  auto index = HarmoniaIndex::build(dev, entries_for(keys), opts);
  index.set_overlay_capacity(16);

  Oracle oracle = initial_oracle(keys);

  Xoshiro256 rng(17);
  std::vector<Key> hot(keys.begin(), keys.begin() + 8);
  int boundaries = 0;
  for (int round = 0; round < 300; ++round) {
    std::vector<UpdateOp> batch;
    for (int i = 0; i < 4; ++i) {
      const Key k = hot[rng.next_below(hot.size())];
      const double r = rng.next_double();
      if (r < 0.5) {
        batch.push_back({OpKind::kDelete, k, 0});
      } else {
        batch.push_back({OpKind::kInsert, k, 1 + (rng.next() >> 1)});
      }
    }
    const auto pr = index.patch_update(batch);
    apply_ops(oracle, std::span(batch).first(pr.absorbed));
    if (pr.exhausted) {
      const auto rest = std::span(batch).subspan(pr.absorbed);
      compact(index, rest);
      apply_ops(oracle, rest);
    } else {
      index.commit_patch();
    }
    ++boundaries;
    verify_host(index, oracle, rng, keys.back());
    if (round % 10 == 0) {
      ASSERT_NO_FATAL_FAILURE(verify_device(index, oracle, rng, keys.back()));
    }
  }
  ASSERT_GE(boundaries, 300);
}

}  // namespace
}  // namespace harmonia
