// Differential fuzz of incremental (delta) epochs on the sharded
// backend: a seeded mixed stream with straddling ranges and scans runs
// against a ShardedServer in kIncremental mode whose tiny per-shard
// overlay bound forces each shard to alternate between in-place patch
// commits and fold-compaction fallbacks — independently, behind the
// shared version fence. Every response is checked against the snapshot
// for the epoch it reports (the response-derived oracle of
// serving_oracle.hpp), so a patch that became visible before its
// shard's fence cleared, or a straddler reassembled across a
// patch/compaction boundary, fails as an oracle mismatch. The runs
// cross >= 1000 per-shard commit boundaries (epochs x shards), both
// epoch kinds must occur, and the same seed must replay byte-identical.
#include <gtest/gtest.h>

#include <vector>

#include "common/expect.hpp"
#include "queries/workload.hpp"
#include "serve/workload.hpp"
#include "serving_oracle.hpp"
#include "shard/sharded_server.hpp"

namespace harmonia::shard {
namespace {

using namespace testing_support;

serve::ServeOptions delta_config(std::uint64_t max_buffered,
                                 std::size_t overlay_cap) {
  serve::ServeOptions cfg;
  cfg.batch.max_batch = 256;
  cfg.batch.max_wait = 100e-6;
  cfg.batch.queue_capacity = 1 << 15;  // no drops: every request oracle-checked
  cfg.batch.max_range_results = 16;
  cfg.epoch.max_buffered = max_buffered;
  cfg.epoch.max_wait = 50e-6;
  // A threaded apply: BatchUpdater::apply deals ops by leaf, so each
  // key's ops still apply in arrival order and the map oracle is exact
  // (BatchUpdater.ThreadedApplyKeepsPerKeyArrivalOrder pins that).
  cfg.epoch.apply_threads = 2;
  cfg.epoch.mode = serve::EpochMode::kIncremental;
  cfg.epoch.overlay_capacity = overlay_cap;
  return cfg;
}

// Acceptance: >= 1000 per-shard patch/compaction/swap boundaries
// (epochs x shards) with straddling ranges and scans in flight — every
// reassembled answer matches one whole-epoch snapshot, each shard's
// overlay folds independently, and both commit paths really ran.
TEST(DeltaShardFuzz, DifferentialOracleAcrossThousandShardBoundaries) {
  ShardedFixture f(3);

  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 5e6;
  spec.count = 52000;
  spec.update_fraction = 0.35;
  spec.range_fraction = 0.08;
  spec.range_span = 64;  // wide enough to straddle partition boundaries
  spec.scan_fraction = 0.05;
  spec.scan_n = 12;
  spec.seed = 4242;
  const auto stream = serve::make_open_loop(f.keys, spec);

  serve::ServeOptions cfg =
      delta_config(/*max_buffered=*/12, /*overlay_cap=*/24);
  // Per-shard commits land on batch boundaries behind the fence, so
  // boundary density bounds the epoch rate: small batches, a free
  // modeled apply, and a fast link pack >= 1000 per-shard boundaries
  // into the stream (as in the swap-fence stress).
  cfg.batch.max_batch = 64;
  cfg.epoch.seconds_per_op = 0.0;
  cfg.epoch.seconds_per_patch_op = 0.0;
  cfg.link.gigabytes_per_second = 100.0;
  cfg.link.latency_seconds = 1e-6;
  ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);

  ASSERT_EQ(rep.dropped, 0u);
  ASSERT_EQ(rep.responses.size(), stream.size());
  ASSERT_GE(rep.epochs * f.index.num_shards(), 1000u)
      << "the stream must cross >= 1000 per-shard commit boundaries";
  EXPECT_GT(rep.split_ranges, 0u);  // straddling fan-outs really happened
  // The tiny per-shard overlays must have forced both commit paths.
  EXPECT_GT(rep.patch_epochs, 0u);
  EXPECT_GT(rep.compaction_epochs, 0u);
  EXPECT_EQ(rep.patch_epochs + rep.compaction_epochs, rep.epochs);

  const auto snapshots = epoch_snapshots(f.keys, stream, rep);
  ASSERT_EQ(snapshots.size(), rep.epochs + 1);
  check_responses(stream, rep, snapshots, cfg.batch.max_range_results);

  // Every shard served work; after the final drain the live index
  // equals the last snapshot (the host search consults per-shard
  // overlays, so entries still parked there are covered too), every
  // shard tree validates, and no overlay exceeds its bound.
  for (unsigned s = 0; s < f.index.num_shards(); ++s) {
    EXPECT_GT(rep.shard_batches[s], 0u) << "shard " << s;
    f.index.shard(s)->tree().validate();
    EXPECT_LE(f.index.shard(s)->overlay_live_count() +
                  f.index.shard(s)->overlay_tombstone_count(),
              cfg.epoch.overlay_capacity)
        << "shard " << s;
  }
  expect_host_reads(f.index, snapshots.back());
}

// Acceptance: sharded incremental epochs replay deterministically —
// per-shard patch-or-compact decisions, fences, and parking included.
TEST(DeltaShardFuzz, DeterministicReplay) {
  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 4e6;
  spec.count = 6000;
  spec.update_fraction = 0.3;
  spec.range_fraction = 0.15;
  spec.range_span = 1024;
  spec.seed = 17;

  auto run_once = [&] {
    ShardedFixture f(3);
    const auto stream = serve::make_open_loop(f.keys, spec);
    const serve::ServeOptions cfg =
        delta_config(/*max_buffered=*/64, /*overlay_cap=*/32);
    ShardedServer server(f.index, cfg);
    return server.run(stream);
  };

  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.responses.size(), b.responses.size());
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    EXPECT_EQ(a.responses[i].id, b.responses[i].id);
    EXPECT_DOUBLE_EQ(a.responses[i].completion, b.responses[i].completion);
    EXPECT_EQ(a.responses[i].epoch, b.responses[i].epoch);
  }
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.patch_epochs, b.patch_epochs);
  EXPECT_EQ(a.compaction_epochs, b.compaction_epochs);
  EXPECT_DOUBLE_EQ(a.epoch_patch_upload_seconds, b.epoch_patch_upload_seconds);
}

}  // namespace
}  // namespace harmonia::shard
