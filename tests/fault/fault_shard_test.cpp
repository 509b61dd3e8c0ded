// Faults through the sharded path: losing a device mid-run must fence
// the shard into correct (oracle-exact) degraded serving until a timed
// restore, and any seeded random plan must replay to a byte-identical
// FaultReport CSV.
#include <gtest/gtest.h>

#include <vector>

#include "common/expect.hpp"
#include "fault/checksum.hpp"
#include "queries/workload.hpp"
#include "serve/workload.hpp"
#include "serving_oracle.hpp"
#include "shard/sharded_server.hpp"

namespace harmonia::shard {
namespace {

using namespace testing_support;

// A shard dies mid-stream: its range is served degraded from its last
// committed image (still epoch-exact), the replacement re-images on schedule, and
// the shard rejoins with a verified device image.
TEST(FaultShard, LostShardServesDegradedThenRestores) {
  ShardedFixture f(4);

  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 4e6;
  spec.count = 6000;
  spec.update_fraction = 0.20;
  spec.range_fraction = 0.10;
  spec.range_span = 64;
  spec.seed = 13;
  const auto stream = serve::make_open_loop(f.keys, spec);

  serve::ServeOptions cfg;
  cfg.batch.max_batch = 128;
  cfg.batch.max_wait = 80e-6;
  cfg.batch.queue_capacity = 1 << 14;
  cfg.batch.max_range_results = 16;
  cfg.epoch.max_buffered = 300;
  // The loss lands inside the arrival window; the repair completes
  // before the stream ends so the shard serves from the device again.
  cfg.faults = fault::FaultPlan::parse("lose@0.0004:shard=1,repair=0.0006");

  ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);

  EXPECT_EQ(rep.faults.shards_lost, 1u);
  EXPECT_EQ(rep.faults.shards_restored, 1u);
  EXPECT_GT(rep.faults.degraded_points, 0u);
  EXPECT_GT(rep.faults.degraded_seconds, 0.0);
  EXPECT_GE(rep.faults.fenced_seconds, 0.0006);
  EXPECT_GE(rep.faults.reimages, 1u);
  EXPECT_EQ(rep.shed, rep.faults.degraded_shed);

  EXPECT_EQ(rep.admitted + rep.dropped, rep.arrivals);
  // Dropped responses (queue rejection or fault shedding) are exempt, but
  // every answered one, device or degraded CPU path, must match a
  // whole-epoch snapshot exactly.
  ASSERT_NO_FATAL_FAILURE(expect_epochs_by_count(stream, rep, cfg.epoch.max_buffered));
  const auto snapshots = epoch_snapshots(f.keys, stream, rep);
  check_responses(stream, rep, snapshots, cfg.batch.max_range_results);

  // The restored shard's image passed its audit and is still clean.
  EXPECT_TRUE(fault::verify_image(*f.index.shard(1)));

  // The index converged to the final snapshot despite the outage.
  EXPECT_EQ(f.index.num_keys(), snapshots.back().size());
  expect_host_reads(f.index, snapshots.back());
}

/// A shard lost inside staged epoch windows: the requests evicted from
/// its queue, and every later one routed to it, are answered degraded
/// under the shard's committed epoch — so they must read the committed
/// image, not the host tree that already holds the staged epoch.
void expect_degraded_answers_match_committed_epoch(serve::EpochMode mode) {
  ShardedFixture f(4);

  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 4e6;
  spec.count = 6000;
  spec.update_fraction = 0.30;
  spec.range_fraction = 0.10;
  spec.range_span = 64;
  spec.seed = 100;
  const auto stream = serve::make_open_loop(f.keys, spec);

  serve::ServeOptions cfg;
  cfg.batch.max_batch = 128;
  cfg.batch.max_wait = 80e-6;
  cfg.batch.queue_capacity = 1 << 14;
  cfg.batch.max_range_results = 16;
  cfg.epoch.max_buffered = 200;
  cfg.epoch.mode = mode;
  cfg.faults = fault::FaultPlan::parse("lose@0.0002:shard=1,repair=0.0004");

  ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);

  EXPECT_EQ(rep.faults.shards_lost, 1u);
  EXPECT_EQ(rep.faults.shards_restored, 1u);
  EXPECT_GT(rep.faults.degraded_ranges, 0u);
  EXPECT_GE(rep.epochs, 3u);
  // The staged modes' epochs need not close at a fixed buffer size.
  check_responses(stream, rep, epoch_snapshots(f.keys, stream, rep),
                  cfg.batch.max_range_results);
  EXPECT_TRUE(fault::verify_image(*f.index.shard(1)));
}

TEST(FaultShard, DegradedAnswersReadTheCommittedImageInDeltaWindows) {
  expect_degraded_answers_match_committed_epoch(serve::EpochMode::kIncremental);
}

TEST(FaultShard, DegradedAnswersReadTheCommittedImageInOverlapWindows) {
  expect_degraded_answers_match_committed_epoch(serve::EpochMode::kOverlap);
}

// A second `lose` on a shard that is still fenced extends the outage to
// the later repair instead of aborting the run: one restore re-images
// the shard at the later instant, both losses book as shard losses, and
// every answer stays epoch-exact.
TEST(FaultShard, OverlappingLoseExtendsTheFence) {
  ShardedFixture f(2);

  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 4e6;
  spec.count = 6000;
  spec.update_fraction = 0.20;
  spec.range_fraction = 0.10;
  spec.range_span = 64;
  spec.seed = 17;
  const auto stream = serve::make_open_loop(f.keys, spec);

  serve::ServeOptions cfg;
  cfg.batch.max_batch = 128;
  cfg.batch.max_wait = 80e-6;
  cfg.batch.queue_capacity = 1 << 14;
  cfg.batch.max_range_results = 16;
  cfg.epoch.max_buffered = 300;
  // Fenced 0.0004 -> 0.0008 by the first loss; the second lands inside
  // that window and pushes the restore out to 0.0012.
  cfg.faults = fault::FaultPlan::parse(
      "lose@0.0004:shard=1,repair=0.0004;lose@0.0006:shard=1,repair=0.0006");

  ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);

  EXPECT_EQ(rep.faults.shards_lost, 2u);
  EXPECT_EQ(rep.faults.shards_restored, 1u);
  EXPECT_NEAR(rep.faults.fenced_seconds, 0.0008, 1e-12);
  EXPECT_GT(rep.faults.degraded_points, 0u);
  check_quiesce_responses(f.keys, stream, rep, cfg);
  EXPECT_TRUE(fault::verify_image(*f.index.shard(1)));
}

// The CI replay gate in code: the same seeded random plan over the same
// stream must reproduce byte-identical FaultReport CSV rows and
// identical responses.
TEST(FaultShard, SeededRandomPlanReplaysByteIdentically) {
  fault::FaultPlan::RandomSpec rspec;
  rspec.horizon = 1.2e-3;
  rspec.events_per_second = 4000;
  rspec.num_shards = 4;
  // Shard losses are exercised above.
  rspec.weights[static_cast<int>(fault::FaultKind::kShardLost)] = 0.0;

  auto run_once = [&] {
    ShardedFixture f(4);
    serve::OpenLoopSpec spec;
    spec.arrivals_per_second = 4e6;
    spec.count = 4000;
    spec.update_fraction = 0.15;
    spec.range_fraction = 0.10;
    spec.range_span = 64;
    spec.seed = 21;
    const auto stream = serve::make_open_loop(f.keys, spec);

    serve::ServeOptions cfg;
    cfg.batch.max_batch = 128;
    cfg.batch.max_wait = 80e-6;
    cfg.epoch.max_buffered = 250;
    cfg.faults = fault::FaultPlan::random(rspec, 17);
    ShardedServer server(f.index, cfg);
    return server.run(stream);
  };

  const auto a = run_once();
  const auto b = run_once();
  EXPECT_NE(a.faults, fault::FaultReport{}) << "plan injected nothing";
  EXPECT_EQ(a.faults.csv_row(), b.faults.csv_row());
  ASSERT_EQ(a.responses.size(), b.responses.size());
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    EXPECT_EQ(a.responses[i].id, b.responses[i].id);
    EXPECT_DOUBLE_EQ(a.responses[i].completion, b.responses[i].completion);
    EXPECT_EQ(a.responses[i].value, b.responses[i].value);
    EXPECT_EQ(a.responses[i].dropped, b.responses[i].dropped);
  }
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

}  // namespace
}  // namespace harmonia::shard
