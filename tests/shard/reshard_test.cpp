// Hot-range splitting and live resharding: a skewed stream must trigger
// a migration that moves half the hot shard's keys to its colder
// neighbor, the plan flip must happen at a swap boundary without losing
// or corrupting a single response, and the whole thing must replay
// deterministically. Extends tests/shard/shard_server_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "fault/checksum.hpp"
#include "fault/fault_plan.hpp"
#include "obs/trace.hpp"
#include "queries/workload.hpp"
#include "serve/workload.hpp"
#include "serving_oracle.hpp"
#include "shard/sharded_server.hpp"

namespace harmonia::shard {
namespace {

using namespace testing_support;

// Updates buffer while a migration is in flight, so epochs are not cut at
// max_buffered: the snapshots come from the update responses.
serve::ServeOptions reshard_config() {
  serve::ServeOptions cfg;
  cfg.batch.max_batch = 128;
  cfg.batch.max_wait = 80e-6;
  cfg.batch.queue_capacity = 1 << 14;
  cfg.batch.max_range_results = 16;
  cfg.epoch.max_buffered = 400;
  cfg.reshard.split_hot = true;
  cfg.reshard.detect_every = 200e-6;
  cfg.reshard.hot_factor = 1.3;
  cfg.reshard.min_window_queries = 64;
  return cfg;
}

serve::OpenLoopSpec zipfian_spec() {
  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 6e6;
  spec.count = 16000;
  spec.update_fraction = 0.05;
  spec.range_fraction = 0.05;
  spec.dist = queries::Distribution::kZipfian;
  spec.seed = 17;
  return spec;
}

// A zipfian stream concentrates load on the low-key shard; detection
// must trigger a split, the plan must flip exactly once per committed
// migration, key conservation must hold across the boundary move, and
// every answered response must still match a whole-epoch snapshot — in
// every epoch mode. (Delta mode defers a split while its overlays are
// live; on this stream its detections still find them compacted.)
TEST(Reshard, HotShardSplitsAndStaysOracleExact) {
  for (const serve::EpochMode mode :
       {serve::EpochMode::kQuiesce, serve::EpochMode::kOverlap,
        serve::EpochMode::kIncremental}) {
    SCOPED_TRACE(static_cast<int>(mode));
    ShardedFixture f(4);
    const auto stream = serve::make_open_loop(f.keys, zipfian_spec());
    auto cfg = reshard_config();
    cfg.epoch.mode = mode;

    ShardedServer server(f.index, cfg);
    const auto rep = server.run(stream);

    ASSERT_GE(rep.migrations, 1u);
    EXPECT_GT(rep.migrated_keys, 0u);
    EXPECT_GT(rep.migration_build_seconds, 0.0);
    EXPECT_GT(rep.migration_upload_seconds, 0.0);
    EXPECT_EQ(rep.plan_version, 1u + rep.migrations);
    EXPECT_EQ(rep.admitted + rep.dropped, rep.arrivals);
    const auto snapshots = epoch_snapshots(f.keys, stream, rep);
    check_responses(stream, rep, snapshots, cfg.batch.max_range_results);

    // Conservation: a split moves keys between shards, never creates or
    // destroys them — the shards together hold exactly the final
    // snapshot, and each holds only keys its post-flip range owns.
    std::uint64_t keys_after = 0;
    for (unsigned s = 0; s < 4; ++s) {
      const auto& tree = f.index.shard(s)->tree();
      keys_after += tree.num_keys();
      EXPECT_EQ(tree.range(f.index.plan().lo(s), f.index.plan().hi(s)).size(),
                tree.num_keys())
          << "shard " << s;
    }
    EXPECT_EQ(keys_after, snapshots.back().size());
  }
}

// max_migrations = 0 is a hard off-switch even with detection enabled.
TEST(Reshard, MaxMigrationsZeroDisablesSplits) {
  ShardedFixture f(4);

  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 6e6;
  spec.count = 8000;
  spec.dist = queries::Distribution::kZipfian;
  spec.seed = 17;
  const auto stream = serve::make_open_loop(f.keys, spec);

  auto cfg = reshard_config();
  cfg.reshard.max_migrations = 0;

  ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);

  EXPECT_EQ(rep.migrations, 0u);
  EXPECT_EQ(rep.plan_version, 1u);
  EXPECT_EQ(rep.migrated_keys, 0u);
}

// A uniform stream never crosses the hotness threshold: detection runs
// but no shard is 1.3x hotter than the mean, so the plan never moves.
TEST(Reshard, UniformLoadNeverTriggersASplit) {
  ShardedFixture f(4);

  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 6e6;
  spec.count = 8000;
  spec.seed = 19;
  const auto stream = serve::make_open_loop(f.keys, spec);

  ShardedServer server(f.index, reshard_config());
  const auto rep = server.run(stream);

  EXPECT_EQ(rep.migrations, 0u);
  EXPECT_EQ(rep.plan_version, 1u);
}

// Resharding composes with replica groups: the same skewed stream over
// K=2 groups still splits, still answers oracle-exact, and the per-
// replica batch grid still sums to the global batch count.
TEST(Reshard, SplitComposesWithReplicaGroups) {
  ShardedFixture f(4);

  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 6e6;
  spec.count = 16000;
  spec.update_fraction = 0.05;
  spec.dist = queries::Distribution::kZipfian;
  spec.seed = 23;
  const auto stream = serve::make_open_loop(f.keys, spec);

  auto cfg = reshard_config();
  cfg.replicas = 2;

  ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);
  ASSERT_GE(rep.migrations, 1u);
  EXPECT_EQ(rep.plan_version, 1u + rep.migrations);
  std::uint64_t grid = 0;
  for (const std::uint64_t b : rep.replica_batches) grid += b;
  EXPECT_EQ(grid, rep.batches);
  check_responses(stream, rep, epoch_snapshots(f.keys, stream, rep),
                  cfg.batch.max_range_results);
}

// The donor of a staged split is lost and restored before the flip
// commits. Its host tree already holds the post-split keys while the old
// plan still routes the ceded range to it, so the restore must re-image
// the committed pre-split image; every answer stays oracle-exact and the
// flip still installs both sides.
TEST(Reshard, DonorRestoredMidSplitKeepsServingThePreSplitImage) {
  auto cfg = reshard_config();
  cfg.epoch.mode = serve::EpochMode::kOverlap;
  const auto annotations = [](const obs::TraceRecorder& trace, unsigned shard,
                              const std::string& prefix) {
    std::vector<double> at;
    for (const auto& e : trace.events()) {
      if (e.stage == obs::Stage::kAnnotation && e.shard == shard &&
          e.note.rfind(prefix, 0) == 0)
        at.push_back(e.at);
    }
    return at;
  };

  // A clean run finds the first split's start instant and donor.
  double start = 0.0;
  unsigned donor = 0;
  {
    ShardedFixture f(4);
    obs::TraceRecorder trace;
    cfg.obs.trace = &trace;
    ShardedServer server(f.index, cfg);
    server.run(serve::make_open_loop(f.keys, zipfian_spec()));
    const auto it = std::find_if(trace.events().begin(), trace.events().end(),
                                 [](const obs::TraceEvent& e) {
                                   return e.note.rfind("reshard start", 0) == 0;
                                 });
    ASSERT_NE(it, trace.events().end());
    start = it->at;
    donor = it->shard;
  }

  ShardedFixture f(4);
  const auto stream = serve::make_open_loop(f.keys, zipfian_spec());
  obs::TraceRecorder trace;
  cfg.obs.trace = &trace;
  cfg.faults = fault::FaultPlan::parse("lose@" + std::to_string(start + 1e-6) + ":shard=" +
                                       std::to_string(donor) + ",repair=0.0001");
  ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);

  // The loss and the restore both land inside the first split's window.
  const auto lost = annotations(trace, donor, "shard lost");
  const auto restored = annotations(trace, donor, "shard restored");
  const auto commits = annotations(trace, donor, "reshard commit");
  ASSERT_EQ(lost.size(), 1u);
  ASSERT_EQ(restored.size(), 1u);
  ASSERT_FALSE(commits.empty());
  EXPECT_LT(start, lost[0]);
  EXPECT_LT(restored[0], commits[0]);

  ASSERT_GE(rep.migrations, 1u);
  EXPECT_EQ(rep.faults.shards_restored, 1u);
  check_responses(stream, rep, epoch_snapshots(f.keys, stream, rep),
                  cfg.batch.max_range_results);
  for (unsigned s = 0; s < 4; ++s) {
    EXPECT_TRUE(fault::verify_image(*f.index.shard(s))) << "shard " << s;
  }
}

// Determinism gate: two identical skewed runs split at the same instant
// and replay to identical responses, plan versions, and makespans.
TEST(Reshard, SplitReplaysDeterministically) {
  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 6e6;
  spec.count = 12000;
  spec.update_fraction = 0.05;
  spec.dist = queries::Distribution::kZipfian;
  spec.seed = 17;

  auto run_once = [&] {
    ShardedFixture f(4);
    const auto stream = serve::make_open_loop(f.keys, spec);
    ShardedServer server(f.index, reshard_config());
    return server.run(stream);
  };

  const auto a = run_once();
  const auto b = run_once();

  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.plan_version, b.plan_version);
  EXPECT_EQ(a.migrated_keys, b.migrated_keys);
  ASSERT_EQ(a.responses.size(), b.responses.size());
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    EXPECT_EQ(a.responses[i].value, b.responses[i].value);
    EXPECT_DOUBLE_EQ(a.responses[i].completion, b.responses[i].completion);
  }
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

/// 64-bit FNV-1a over every response's (id, value, range_values, epoch,
/// dispatch, completion), in delivery order.
std::uint64_t response_digest(const serve::ServerReport& rep) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](const auto& v) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ULL;
    }
  };
  for (const serve::Response& r : rep.responses) {
    mix(r.id);
    mix(r.value);
    mix(r.range_values.size());
    for (const Value v : r.range_values) mix(v);
    mix(r.epoch);
    mix(r.dispatch);
    mix(r.completion);
  }
  return h;
}

// Golden replay of the split path: the migration counters, its modeled
// build/upload charges, the makespan and a digest of every response are
// pinned for a quiesce run and for an overlap run whose small epochs
// alternate with migrations. Any change to when a split stages, what it
// charges, or when the plan flips moves one of these numbers.
TEST(Reshard, SplitGolden) {
  struct Golden {
    serve::EpochMode mode;
    std::size_t max_buffered;
    std::uint64_t migrations;
    std::uint64_t migrated_keys;
    unsigned plan_version;
    std::uint64_t epochs;
    double build_seconds;
    double upload_seconds;
    double makespan;
    std::uint64_t digest;
  };
  const Golden cases[] = {
      {serve::EpochMode::kQuiesce, 400, 1, 512, 2, 3, 0x1.0c6f7a0b5ed8dp-12,
       0x1.170ee8281fdcap-15, 0x1.7e9a21e5becfcp-9, 17418320592695088337ULL},
      {serve::EpochMode::kOverlap, 64, 1, 513, 2, 11, 0x1.0cf5b1c864884p-12,
       0x1.170ee8281fdcap-15, 0x1.7274a1f3e1233p-9, 16116515235693308692ULL},
  };
  for (const Golden& g : cases) {
    SCOPED_TRACE(static_cast<int>(g.mode));
    ShardedFixture f(4);
    const auto stream = serve::make_open_loop(f.keys, zipfian_spec());
    auto cfg = reshard_config();
    cfg.epoch.mode = g.mode;
    cfg.epoch.max_buffered = g.max_buffered;

    ShardedServer server(f.index, cfg);
    const auto rep = server.run(stream);

    EXPECT_EQ(rep.migrations, g.migrations);
    EXPECT_EQ(rep.migrated_keys, g.migrated_keys);
    EXPECT_EQ(rep.plan_version, g.plan_version);
    EXPECT_EQ(rep.epochs, g.epochs);
    EXPECT_EQ(rep.migration_build_seconds, g.build_seconds);
    EXPECT_EQ(rep.migration_upload_seconds, g.upload_seconds);
    EXPECT_EQ(rep.makespan, g.makespan);
    EXPECT_EQ(response_digest(rep), g.digest);
  }
}

}  // namespace
}  // namespace harmonia::shard
