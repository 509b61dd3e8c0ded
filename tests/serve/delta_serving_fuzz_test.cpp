// Differential fuzz of the incremental (delta) epoch pipeline through
// the full serving stack: a seeded mixed point/range/scan/update stream
// runs against an incremental-mode one-device ShardedServer whose
// deliberately tiny overlay bound forces it to alternate between
// in-place patch commits and compaction fallbacks, and every response is
// checked against the snapshot for the epoch it reports (the
// response-derived oracle of serving_oracle.hpp). The runs cross >= 1000
// patch/compaction/swap boundaries, both epoch kinds must actually
// occur, the patch/compaction report split must reconcile
// (check_invariants fires inside run()), and the same seed must replay
// to byte-identical responses.
#include <gtest/gtest.h>

#include <vector>

#include "common/expect.hpp"
#include "queries/workload.hpp"
#include "serve/options.hpp"
#include "serve/workload.hpp"
#include "serving_oracle.hpp"
#include "shard/sharded_server.hpp"

namespace harmonia::serve {
namespace {

using namespace testing_support;

ServeOptions delta_config(std::uint64_t max_buffered, std::size_t overlay_cap) {
  ServeOptions cfg;
  cfg.batch.max_batch = 256;
  cfg.batch.max_wait = 100e-6;
  cfg.batch.queue_capacity = 1 << 15;  // no drops: every request oracle-checked
  cfg.batch.max_range_results = 16;
  cfg.epoch.max_buffered = max_buffered;
  cfg.epoch.max_wait = 50e-6;
  // One apply thread (a threaded apply deals ops by leaf and matches it
  // exactly; BatchUpdater.ThreadedApplyKeepsPerKeyArrivalOrder pins that).
  cfg.epoch.apply_threads = 1;
  cfg.epoch.mode = EpochMode::kIncremental;
  cfg.epoch.overlay_capacity = overlay_cap;
  return cfg;
}

// Acceptance: >= 1000 epoch boundaries through the incremental pipeline
// — in-place patch commits interleaved with overlay-exhaustion
// compactions — and every point/range/scan answer still matches the
// snapshot for the epoch it reports. Queries served between a staged
// patch and its commit must see the pre-patch device image; a torn or
// early-visible patch would show up as an oracle mismatch here.
TEST(DeltaServingFuzz, DifferentialOracleAcrossThousandEpochBoundaries) {
  ServerFixture f;

  OpenLoopSpec spec;
  spec.arrivals_per_second = 5e6;
  spec.count = 100000;
  spec.update_fraction = 0.35;
  spec.range_fraction = 0.05;
  spec.range_span = 8;
  spec.scan_fraction = 0.05;
  spec.scan_n = 12;
  spec.seed = 1337;
  const auto stream = make_open_loop(f.keys, spec);

  ServeOptions cfg = delta_config(/*max_buffered=*/6, /*overlay_cap=*/24);
  // Epoch commits land on batch boundaries, so boundary density bounds
  // the epoch rate: small batches, a free modeled apply, and a fast
  // link pack >= 1000 epochs into the stream (as in the swap stress).
  cfg.batch.max_batch = 32;
  cfg.epoch.seconds_per_op = 0.0;
  cfg.epoch.seconds_per_patch_op = 0.0;
  cfg.link.gigabytes_per_second = 100.0;
  cfg.link.latency_seconds = 1e-6;
  shard::ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);

  ASSERT_EQ(rep.dropped, 0u);
  ASSERT_EQ(rep.responses.size(), stream.size());
  ASSERT_GE(rep.epochs, 1000u)
      << "the stream must cross >= 1000 patch/compaction/swap boundaries";
  // The tiny overlay must have forced both commit paths.
  EXPECT_GT(rep.patch_epochs, 0u);
  EXPECT_GT(rep.compaction_epochs, 0u);
  EXPECT_EQ(rep.patch_epochs + rep.compaction_epochs, rep.epochs);

  const auto snapshots = epoch_snapshots(f.keys, stream, rep);
  ASSERT_EQ(snapshots.size(), rep.epochs + 1);
  ASSERT_NO_FATAL_FAILURE(
      check_responses(stream, rep, snapshots, cfg.batch.max_range_results));

  // After the final drain the live index equals the last snapshot (the
  // host search consults the overlay, so entries still parked there —
  // the drain may commit as a patch — are covered too) and the
  // committed tree still satisfies every structural invariant.
  f.index.tree().validate();
  EXPECT_LE(f.index.overlay_live_count() + f.index.overlay_tombstone_count(),
            cfg.epoch.overlay_capacity);
  expect_host_reads(f.index, snapshots.back());
}

// Acceptance: the incremental pipeline is deterministic — the same seed
// and config replay to byte-identical response streams and identical
// patch/compaction splits (the virtual clock admits no hidden state).
TEST(DeltaServingFuzz, DeterministicReplay) {
  OpenLoopSpec spec;
  spec.arrivals_per_second = 5e6;
  spec.count = 6000;
  spec.update_fraction = 0.3;
  spec.range_fraction = 0.05;
  spec.seed = 99;

  auto run_once = [&](ServerReport& out) {
    ServerFixture f;
    const auto stream = make_open_loop(f.keys, spec);
    const ServeOptions cfg = delta_config(/*max_buffered=*/16, /*overlay_cap=*/32);
    shard::ShardedServer server(f.index, cfg);
    out = server.run(stream);
  };

  ServerReport a, b;
  run_once(a);
  run_once(b);
  ASSERT_EQ(a.responses.size(), b.responses.size());
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    const Response& ra = a.responses[i];
    const Response& rb = b.responses[i];
    ASSERT_EQ(ra.id, rb.id);
    ASSERT_EQ(ra.epoch, rb.epoch);
    ASSERT_EQ(ra.value, rb.value);
    ASSERT_EQ(ra.range_values, rb.range_values);
    ASSERT_DOUBLE_EQ(ra.completion, rb.completion);
  }
  EXPECT_EQ(a.patch_epochs, b.patch_epochs);
  EXPECT_EQ(a.compaction_epochs, b.compaction_epochs);
  EXPECT_DOUBLE_EQ(a.epoch_patch_upload_seconds, b.epoch_patch_upload_seconds);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

// Acceptance: an update-heavy incremental run pays dramatically less
// upload than the same stream through the full-image overlap pipeline —
// the serving-level expression of the patch_bytes << image_bytes
// contract (the E13 sweep quantifies the crossover; this just pins the
// direction at test scale).
TEST(DeltaServingFuzz, PatchUploadsUndercutFullImageUploads) {
  OpenLoopSpec spec;
  spec.arrivals_per_second = 5e6;
  spec.count = 20000;
  spec.update_fraction = 0.5;
  spec.seed = 7;

  auto run_mode = [&](EpochMode mode) {
    // A tree big enough that a full-image upload dwarfs a patch burst
    // (the same reason E13's crossover gate runs at --size=19).
    ServerFixture f(1 << 16);
    const auto stream = make_open_loop(f.keys, spec);
    ServeOptions cfg = delta_config(/*max_buffered=*/64, /*overlay_cap=*/1024);
    cfg.epoch.mode = mode;
    shard::ShardedServer server(f.index, cfg);
    return server.run(stream);
  };

  const auto overlap = run_mode(EpochMode::kOverlap);
  const auto delta = run_mode(EpochMode::kIncremental);
  ASSERT_GT(overlap.epochs, 10u);
  ASSERT_GT(delta.patch_epochs, 0u);
  // Patch epochs move dirty leaves + overlay entries, not whole images:
  // per epoch, a patch upload must undercut a full-image upload by 10x.
  const double patch_per_epoch = delta.epoch_patch_upload_seconds /
                                 static_cast<double>(delta.patch_epochs);
  const double image_per_epoch = overlap.epoch_upload_seconds /
                                 static_cast<double>(overlap.epochs);
  EXPECT_LT(patch_per_epoch, image_per_epoch * 0.1);
}

}  // namespace
}  // namespace harmonia::serve
