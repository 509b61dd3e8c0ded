// Differential crash-recovery fuzz (docs/fault_tolerance.md#restart):
// a seeded serving history runs through the real durability write path
// (ShardDurability: write-ahead log + cadence/compaction snapshots on
// the virtual clock) with a crash armed at a swept instant and a torn
// final write. Recovery (RecoveryManager) then cold-starts a fresh
// index from the crashed directory, and the test checks it against an
// oracle that mirrors the durable-write sequence: the recovered state
// must be bit-identical to the logical state after the last epoch whose
// log record survived intact — every key, every value, every tombstone.
//
// The sweep covers > 1000 distinct seeded crash points: crashes before
// an epoch's log append, between the append and the snapshot (torn
// mid-log-append), after the snapshot (torn image: recovery discards it
// and falls back to the previous image plus a log replay), plus
// variants that tear the newest snapshot image after the fact (crash
// during a background image write), with clean-cut (torn=0) and torn
// variants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <set>
#include <vector>

#include "btree/btree.hpp"
#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "harmonia/index.hpp"
#include "harmonia/pipeline.hpp"
#include "persist/durability.hpp"
#include "persist/recovery.hpp"
#include "queries/batch.hpp"
#include "queries/workload.hpp"
#include "serve/epoch_updater.hpp"
#include "serving_oracle.hpp"
#include "test_dir.hpp"

namespace harmonia::persist {
namespace {

using queries::OpKind;
using queries::UpdateOp;

constexpr int kEpochs = 8;
constexpr std::size_t kOverlayCapacity = 12;

using namespace testing_support;

// Four SMs: every recovered stack holds a few hundred keys.
const gpusim::DeviceSpec kDevice = [] {
  auto spec = small_device();
  spec.num_sms = 4;
  return spec;
}();

UpdateOp random_op(Xoshiro256& rng, Key key_span) {
  const Key k = 1 + rng.next_below(key_span);
  const Value v = 1 + (rng.next() >> 1);
  const double r = rng.next_double();
  if (r < 0.45) return {OpKind::kInsert, k, v};
  if (r < 0.70) return {OpKind::kUpdate, k, v};
  return {OpKind::kDelete, k, 0};
}

/// A seed's serving history, shared by all of its crash variants: the
/// base keys, the per-epoch batches, and the oracle state after each
/// epoch (model_after[e] = logical contents once epoch e committed).
struct Scenario {
  std::vector<Key> keys;
  IndexOptions opts;
  std::vector<std::vector<UpdateOp>> batches;  // batches[e-1] = epoch e
  std::vector<Oracle> model_after;
  std::vector<Key> touched;  // every key the sweep must probe
};

Scenario make_scenario(std::uint64_t seed) {
  Scenario sc;
  const std::uint64_t n = 256 + (seed % 4) * 128;
  sc.keys = queries::make_tree_keys(n, seed + 1);
  sc.opts.fanout = seed % 2 == 0 ? 8 : 16;
  sc.opts.fill_factor = 0.8;

  Xoshiro256 rng(seed * 1000003 + 17);
  const Key key_span = sc.keys.back() + sc.keys.back() / 8;
  Oracle model = initial_oracle(sc.keys);
  sc.model_after.push_back(model);  // model_after[0] = initial state

  std::set<Key> touched(sc.keys.begin(), sc.keys.end());
  for (int e = 1; e <= kEpochs; ++e) {
    std::vector<UpdateOp> batch;
    const std::size_t ops = 8 + rng.next_below(7);
    for (std::size_t i = 0; i < ops; ++i) batch.push_back(random_op(rng, key_span));
    for (const auto& op : batch) touched.insert(op.key);
    apply_ops(model, batch);
    sc.model_after.push_back(model);
    sc.batches.push_back(std::move(batch));
  }
  sc.touched.assign(touched.begin(), touched.end());
  return sc;
}

/// Mirror of ShardDurability's durable-write sequence: which writes hit
/// disk before the crash, in order. The last one is what a torn crash
/// damages: a log record or a snapshot image.
struct MirrorWrite {
  enum Kind { kLog, kImage } kind;
  std::uint64_t epoch;
};

struct Expected {
  bool from_snapshot = false;
  std::uint64_t snapshot_epoch = 0;  // s*
  std::uint64_t recovered_epoch = 0;  // k* = max(s*, last intact log epoch)
  unsigned discarded = 0;  // damaged images newer than s*
};

struct RunStats {
  int from_snapshot = 0;
  int rebuilt = 0;
  int log_torn = 0;
  int torn_image_fallback = 0;
  int snapshots_discarded = 0;
  int overlay_folded = 0;
};

void run_one(const Scenario& sc, std::uint64_t seed, double crash,
             std::uint64_t torn, bool tear_image,
             const std::filesystem::path& dir, RunStats& stats) {
  SCOPED_TRACE(::testing::Message() << "seed " << seed << " crash " << crash
                                    << " torn " << torn << " tear_image "
                                    << tear_image);
  const auto entries = entries_for(sc.keys);

  DurabilityConfig cfg;
  cfg.dir = dir.string();
  cfg.snapshot_every = 2 + seed % 3;
  cfg.retain = 2;

  // --- The crashed generation: serve kEpochs through the real write
  // path, with the crash armed. The ctor wipes stale state from the
  // previous variant's run (fresh-start semantics).
  DurabilityDomain domain(cfg, 1);
  domain.set_crash_time(crash);
  ShardDurability* dur = domain.shard(0);

  gpusim::Device dev(kDevice);
  btree::BTree builder(sc.opts.fanout);
  builder.bulk_load(entries, sc.opts.fill_factor);
  HarmoniaIndex index(dev, HarmoniaTree::from_btree(builder), sc.opts);
  index.set_overlay_capacity(kOverlayCapacity);

  std::vector<MirrorWrite> writes;
  std::uint64_t m_since = 0;
  std::vector<std::uint64_t> m_retained;  // newest first, mirrors disk
  for (int e = 1; e <= kEpochs; ++e) {
    const auto& batch = sc.batches[static_cast<std::size_t>(e - 1)];
    const double t_log = e;         // WAL append at the trigger instant
    const double t_snap = e + 0.5;  // snapshot after the epoch commits

    dur->log_batch(static_cast<std::uint64_t>(e), batch, t_log);
    if (t_log < crash) {
      writes.push_back({MirrorWrite::kLog, static_cast<std::uint64_t>(e)});
      ++m_since;
    }

    // Apply through the delta path so snapshots carry live overlays;
    // exhaustion falls back to a fold-compaction, which forces a
    // snapshot exactly like the serving layer does.
    const auto pr = index.patch_update(batch);
    const bool compacted = pr.exhausted;
    if (compacted) {
      auto fold = index.overlay_as_ops();
      const auto rest = std::span(batch).subspan(pr.absorbed);
      fold.insert(fold.end(), rest.begin(), rest.end());
      index.discard_patch();
      index.commit_staged(index.stage_update(fold));
    } else {
      index.commit_patch();
    }

    dur->maybe_snapshot(static_cast<std::uint64_t>(e), index, compacted, t_snap);
    const bool due = cfg.snapshot_every > 0 && m_since >= cfg.snapshot_every;
    if ((compacted || due) && !(m_since == 0 && !m_retained.empty()) &&
        t_snap < crash) {
      writes.push_back({MirrorWrite::kImage, static_cast<std::uint64_t>(e)});
      m_since = 0;
      m_retained.insert(m_retained.begin(), static_cast<std::uint64_t>(e));
      if (m_retained.size() > cfg.retain) m_retained.resize(cfg.retain);
    }
  }

  // --- Seal the crash and mirror its effect.
  domain.apply_crash(0, torn);
  std::set<std::uint64_t> valid_log;
  for (const auto& w : writes) {
    if (w.kind == MirrorWrite::kLog) valid_log.insert(w.epoch);
  }
  std::set<std::uint64_t> invalid_images;
  bool torn_image = false;
  if (torn > 0 && !writes.empty()) {
    const MirrorWrite& last = writes.back();
    if (last.kind == MirrorWrite::kLog) valid_log.erase(last.epoch);
    // The image is the last write of its instant: the retention prune
    // already ran, so the fallback is the previous retained image.
    if (last.kind == MirrorWrite::kImage) {
      invalid_images.insert(last.epoch);
      torn_image = true;
    }
  }
  SnapshotStore store(cfg.shard_dir(0));
  // Prune coverage: the directory is the catalogue, so it must hold
  // exactly the retained images, whatever instant the crash hit.
  ASSERT_EQ(store.list(), m_retained);
  if (tear_image && !m_retained.empty()) {
    // Crash during a background image write: the newest image is torn.
    const std::uint64_t victim = m_retained.front();
    const auto path = store.path_for(victim);
    ASSERT_TRUE(std::filesystem::exists(path));
    const auto size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size / 2);
    invalid_images.insert(victim);
  }

  Expected want;
  for (const std::uint64_t e : m_retained) {
    if (invalid_images.count(e) == 0) {
      want.from_snapshot = true;
      want.snapshot_epoch = e;
      break;
    }
    ++want.discarded;
  }
  want.recovered_epoch = want.snapshot_epoch;
  if (!valid_log.empty())
    want.recovered_epoch = std::max(want.recovered_epoch, *valid_log.rbegin());
  const auto& oracle = sc.model_after[want.recovered_epoch];

  // --- Cold-start a fresh stack from the crashed directory.
  RecoveryManager rm(cfg, serve::EpochConfig{}.seconds_per_op);
  RecoveryManager::Materials mat = rm.load_shard(0);
  gpusim::Device dev2(kDevice);
  std::unique_ptr<HarmoniaIndex> index2;
  if (mat.snapshot.has_value()) {
    IndexOptions ropts = sc.opts;
    ropts.fill_factor = mat.snapshot->extras.fill_factor;
    index2 = std::make_unique<HarmoniaIndex>(dev2, std::move(mat.snapshot->tree),
                                             ropts);
  } else {
    btree::BTree rebuild(sc.opts.fanout);
    rebuild.bulk_load(entries, sc.opts.fill_factor);
    index2 = std::make_unique<HarmoniaIndex>(dev2, HarmoniaTree::from_btree(rebuild),
                                             sc.opts);
  }
  index2->set_overlay_capacity(kOverlayCapacity);
  const RecoveryReport rep =
      rm.finish(std::move(mat), *index2, TransferModel{}, sc.keys.size());

  // --- Differential checks: report vs the mirror, state vs the oracle.
  ASSERT_EQ(rep.from_snapshot, want.from_snapshot);
  ASSERT_EQ(rep.rebuilt, !want.from_snapshot);
  ASSERT_EQ(rep.snapshot_epoch, want.snapshot_epoch);
  ASSERT_EQ(rep.snapshots_discarded, want.discarded);
  ASSERT_EQ(rep.recovered_epoch, want.recovered_epoch);
  ASSERT_GT(rep.modeled_seconds, 0.0);

  index2->tree().validate();
  for (const Key k : sc.touched) {
    const auto got = index2->search_host(k);
    const auto it = oracle.find(k);
    if (it == oracle.end()) {
      ASSERT_FALSE(got.has_value()) << "key " << k << " resurrected";
    } else {
      ASSERT_TRUE(got.has_value()) << "key " << k << " lost";
      ASSERT_EQ(*got, it->second) << "key " << k << " wrong value";
    }
  }

  stats.from_snapshot += rep.from_snapshot ? 1 : 0;
  stats.rebuilt += rep.rebuilt ? 1 : 0;
  stats.log_torn += rep.log_torn_tail ? 1 : 0;
  // Reached only when the recovered state matched the oracle above: the
  // torn newest image was discarded for the previous one plus the log.
  stats.torn_image_fallback +=
      torn_image && rep.from_snapshot && rep.snapshots_discarded > 0 ? 1 : 0;
  stats.snapshots_discarded += rep.snapshots_discarded > 0 ? 1 : 0;
  stats.overlay_folded += rep.overlay_replayed > 0 ? 1 : 0;
}

/// Device-level sweep on a handful of recovered stacks: the uploaded
/// image answers exactly like the host oracle (run_one checks the host
/// truth everywhere; this pins the device image too).
void device_sweep(const Scenario& sc, std::uint64_t recovered_epoch,
                  HarmoniaIndex& index) {
  const auto& oracle = sc.model_after[recovered_epoch];
  std::vector<Key> qs;
  std::vector<Value> want;
  for (const auto& [k, v] : oracle) {
    qs.push_back(k);
    want.push_back(v);
  }
  const auto result = index.search(qs);
  ASSERT_EQ(result.values.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(result.values[i], want[i]) << "device sweep key " << qs[i];
  }
}

TEST(RecoveryFuzz, DifferentialCrashSweep) {
  const auto dir = testing_support::unique_test_dir();
  std::filesystem::remove_all(dir);

  // (torn bytes, tear newest image) variants per crash instant. Batches
  // hold >= 8 ops (137+ byte records), so a torn log write only ever
  // damages the final record — mirroring apply_tear's contract.
  const struct {
    std::uint64_t torn;
    bool tear_image;
  } kVariants[] = {{0, false}, {5, false}, {64, false}, {0, true}};

  int crash_points = 0;
  RunStats stats;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const Scenario sc = make_scenario(seed);
    for (int e = 1; e <= kEpochs; ++e) {
      // Before the epoch's log append; between append and snapshot
      // (mid-log-append tear); after the snapshot (image tear).
      for (const double crash : {e - 0.25, e + 0.25, e + 0.75}) {
        for (const auto& v : kVariants) {
          ASSERT_NO_FATAL_FAILURE(
              run_one(sc, seed, crash, v.torn, v.tear_image, dir, stats));
          ++crash_points;
        }
      }
    }
  }
  std::filesystem::remove_all(dir);

  EXPECT_GE(crash_points, 1000) << "acceptance floor: >= 1000 seeded crash points";
  // The sweep must actually visit every recovery regime, or the oracle
  // equality above proves less than it claims.
  EXPECT_GT(stats.from_snapshot, 0);
  EXPECT_GT(stats.rebuilt, 0);
  EXPECT_GT(stats.log_torn, 0) << "no mid-log-append tear was exercised";
  EXPECT_GT(stats.torn_image_fallback, 0)
      << "no crash point tore the newest image and still recovered the oracle state";
  EXPECT_GT(stats.snapshots_discarded, 0) << "no torn image was exercised";
  EXPECT_GT(stats.overlay_folded, 0) << "no snapshot carried a live overlay";
}

TEST(RecoveryFuzz, DeviceImageMatchesOracleAfterRecovery) {
  const auto dir = testing_support::unique_test_dir();
  std::filesystem::remove_all(dir);

  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const Scenario sc = make_scenario(seed);
    const auto entries = entries_for(sc.keys);
    const double crash = 4.75 + static_cast<double>(seed);

    DurabilityConfig cfg;
    cfg.dir = dir.string();
    cfg.snapshot_every = 2;
    cfg.retain = 2;
    DurabilityDomain domain(cfg, 1);
    domain.set_crash_time(crash);

    gpusim::Device dev(kDevice);
    btree::BTree builder(sc.opts.fanout);
    builder.bulk_load(entries, sc.opts.fill_factor);
    HarmoniaIndex index(dev, HarmoniaTree::from_btree(builder), sc.opts);
    index.set_overlay_capacity(kOverlayCapacity);
    for (int e = 1; e <= kEpochs; ++e) {
      const auto& batch = sc.batches[static_cast<std::size_t>(e - 1)];
      domain.shard(0)->log_batch(static_cast<std::uint64_t>(e), batch, e);
      index.commit_staged(index.stage_update(batch));
      domain.shard(0)->maybe_snapshot(static_cast<std::uint64_t>(e), index,
                                      /*force=*/false, e + 0.5);
    }
    domain.apply_crash(0, 32);

    RecoveryManager rm(cfg, serve::EpochConfig{}.seconds_per_op);
    RecoveryManager::Materials mat = rm.load_shard(0);
    gpusim::Device dev2(kDevice);
    std::unique_ptr<HarmoniaIndex> index2;
    if (mat.snapshot.has_value()) {
      IndexOptions ropts = sc.opts;
      ropts.fill_factor = mat.snapshot->extras.fill_factor;
      index2 = std::make_unique<HarmoniaIndex>(
          dev2, std::move(mat.snapshot->tree), ropts);
    } else {
      btree::BTree rebuild(sc.opts.fanout);
      rebuild.bulk_load(entries, sc.opts.fill_factor);
      index2 = std::make_unique<HarmoniaIndex>(
          dev2, HarmoniaTree::from_btree(rebuild), sc.opts);
    }
    index2->set_overlay_capacity(kOverlayCapacity);
    const RecoveryReport rep =
        rm.finish(std::move(mat), *index2, TransferModel{}, sc.keys.size());
    ASSERT_NO_FATAL_FAILURE(device_sweep(sc, rep.recovered_epoch, *index2))
        << "seed " << seed;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace harmonia::persist
