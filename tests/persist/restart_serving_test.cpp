// run_with_restarts: kProcessRestart faults tear the whole serving
// stack down mid-run, recovery cold-starts the next generation from the
// crashed directory, and the harness stitches the generations into one
// timeline. These tests pin the cycle accounting (crash / down /
// recovery / resume / TTFR), per-shard recovery independence, request
// conservation across generations, and bit-identical replays.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "queries/workload.hpp"
#include "serve/options.hpp"
#include "serve/workload.hpp"
#include "shard/backend_factory.hpp"
#include "shard/restart_harness.hpp"
#include "test_dir.hpp"

namespace harmonia::shard {
namespace {

TopologySpec small_topo(unsigned shards = 1) {
  TopologySpec topo;
  topo.log2_keys = 10;
  topo.fanout = 16;
  topo.shards = shards;
  topo.seed = 3;
  return topo;
}

serve::ServeOptions serving_options(const std::string& dir) {
  serve::ServeOptions opts;
  opts.epoch.max_buffered = 64;
  opts.persist.dir = dir;
  opts.persist.snapshot_every = 2;
  opts.persist.retain = 2;
  return opts;
}

std::vector<serve::Request> update_heavy_stream(const TopologySpec& topo,
                                                std::uint64_t count = 4096) {
  const auto keys = queries::make_tree_keys(1ULL << topo.log2_keys, topo.seed);
  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 2e5;
  spec.count = count;
  spec.update_fraction = 0.3;
  spec.seed = 11;
  return serve::make_open_loop(keys, spec);
}

class RestartServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing_support::unique_test_dir();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(RestartServingTest, RequiresPersistence) {
  const auto topo = small_topo();
  serve::ServeOptions opts;  // no persist.dir
  opts.faults = fault::FaultPlan::parse("restart@0.004:down=0.001,torn=32");
  const auto stream = update_heavy_stream(topo, 256);
  EXPECT_THROW(run_with_restarts(topo, opts, stream), ContractViolation);
}

TEST_F(RestartServingTest, RequiresARestartEvent) {
  const auto topo = small_topo();
  auto opts = serving_options(dir_.string());
  const auto stream = update_heavy_stream(topo, 256);
  EXPECT_THROW(run_with_restarts(topo, opts, stream), ContractViolation);
}

TEST_F(RestartServingTest, BackendRejectsRestartEvents) {
  // A backend can never honor a restart (a server cannot restart
  // itself); only the harness may consume them.
  serve::ServeOptions opts = serving_options(dir_.string());
  opts.faults = fault::FaultPlan::parse("restart@0.004:down=0.001,torn=32");
  EXPECT_THROW(opts.validate(1), ContractViolation);
}

TEST_F(RestartServingTest, SingleRestartRecoversAndReplies) {
  const auto topo = small_topo();
  auto opts = serving_options(dir_.string());
  opts.faults = fault::FaultPlan::parse("restart@0.004:down=0.001,torn=32");
  const auto stream = update_heavy_stream(topo);

  const RestartReport report = run_with_restarts(topo, opts, stream);
  ASSERT_EQ(report.segments.size(), 2u);
  ASSERT_EQ(report.cycles.size(), 1u);

  const RestartCycle& cycle = report.cycles[0];
  EXPECT_DOUBLE_EQ(cycle.crash_time, 0.004);
  EXPECT_DOUBLE_EQ(cycle.down_seconds, 0.001);
  ASSERT_EQ(cycle.recoveries.size(), 1u);
  EXPECT_GT(cycle.recovery_seconds, 0.0);
  EXPECT_DOUBLE_EQ(cycle.resume_time,
                   cycle.crash_time + cycle.down_seconds + cycle.recovery_seconds);

  // TTFR: the first reply of the recovered generation comes after the
  // whole down + recovery window (arrivals queued at the front door).
  ASSERT_TRUE(std::isfinite(cycle.first_reply));
  EXPECT_GE(cycle.first_reply, cycle.resume_time);
  EXPECT_GT(cycle.ttfr_seconds(), cycle.down_seconds + cycle.recovery_seconds);

  // The crashed generation durably logged its epochs; the recovered one
  // replayed from the crash's disk rather than rebuilding blind.
  EXPECT_GT(report.segments[0].log_batches, 0u);
  const persist::RecoveryReport& rec = cycle.recoveries[0];
  EXPECT_TRUE(rec.from_snapshot || rec.batches_replayed > 0 || rec.rebuilt);
  EXPECT_GT(rec.modeled_seconds, 0.0);

  // Request conservation: every arrival lands in exactly one generation.
  std::uint64_t arrivals = 0;
  for (const auto& seg : report.segments) arrivals += seg.arrivals;
  EXPECT_EQ(arrivals, stream.size());
  for (const auto& seg : report.segments) {
    EXPECT_EQ(seg.arrivals, seg.admitted + seg.dropped);
    EXPECT_EQ(seg.responses.size(), seg.arrivals);
  }
  // No response of the recovered generation predates the resume instant.
  for (const auto& resp : report.segments[1].responses) {
    if (!resp.dropped) {
      EXPECT_GE(resp.completion, cycle.resume_time);
    }
  }
}

TEST_F(RestartServingTest, MultiRestartChainRecoversEachGeneration) {
  const auto topo = small_topo();
  auto opts = serving_options(dir_.string());
  opts.faults = fault::FaultPlan::parse(
      "restart@0.004:down=0.0005,torn=48;restart@0.009:down=0.0005,torn=0");
  const auto stream = update_heavy_stream(topo);

  const RestartReport report = run_with_restarts(topo, opts, stream);
  ASSERT_EQ(report.segments.size(), 3u);
  ASSERT_EQ(report.cycles.size(), 2u);
  EXPECT_LT(report.cycles[0].crash_time, report.cycles[1].crash_time);
  EXPECT_LT(report.cycles[0].first_reply, report.cycles[1].first_reply);
  for (const RestartCycle& cycle : report.cycles) {
    ASSERT_EQ(cycle.recoveries.size(), 1u);
    EXPECT_GT(cycle.ttfr_seconds(), 0.0);
  }
  // The second recovery starts from the first recovery's checkpoint (or
  // a snapshot the middle generation wrote) — never a blind rebuild.
  EXPECT_TRUE(report.cycles[1].recoveries[0].from_snapshot);

  std::uint64_t arrivals = 0;
  for (const auto& seg : report.segments) arrivals += seg.arrivals;
  EXPECT_EQ(arrivals, stream.size());
}

// A middle generation too short to reach its first cadence snapshot
// leaves only the first recovery's checkpoint (epoch 0) plus its log.
// The second recovery must start from that checkpoint: the crashed
// generation's stale, higher-numbered images are gone, so nothing can
// shadow it, and no update of the first generation is lost to a rebuild.
TEST_F(RestartServingTest, SecondRestartRecoversTheCheckpoint) {
  const auto topo = small_topo();
  auto opts = serving_options(dir_.string());
  opts.faults = fault::FaultPlan::parse(
      "restart@0.004:down=0.0005,torn=0;restart@0.0052:down=0.0005,torn=0");
  const auto stream = update_heavy_stream(topo);

  const RestartReport report = run_with_restarts(topo, opts, stream);
  ASSERT_EQ(report.segments.size(), 3u);
  ASSERT_EQ(report.cycles.size(), 2u);
  const persist::RecoveryReport& first = report.cycles[0].recoveries.at(0);
  EXPECT_TRUE(first.from_snapshot);
  EXPECT_GT(first.snapshot_epoch, 0u) << "the first generation wrote no snapshot";
  EXPECT_EQ(report.segments[1].snapshots_written, 0u) << "the middle generation is too long";

  const persist::RecoveryReport& second = report.cycles[1].recoveries.at(0);
  EXPECT_TRUE(second.from_snapshot);
  EXPECT_EQ(second.snapshot_epoch, 0u);
  EXPECT_FALSE(second.rebuilt);
  EXPECT_EQ(second.snapshots_discarded, 0u);
}

TEST_F(RestartServingTest, ShardedShardsRecoverIndependently) {
  const auto topo = small_topo(/*shards=*/2);
  auto opts = serving_options(dir_.string());
  opts.faults = fault::FaultPlan::parse("restart@0.004:shard=1,down=0.001,torn=64");
  const auto stream = update_heavy_stream(topo);

  const RestartReport report = run_with_restarts(topo, opts, stream);
  ASSERT_EQ(report.segments.size(), 2u);
  ASSERT_EQ(report.cycles.size(), 1u);
  const RestartCycle& cycle = report.cycles[0];
  // One recovery report per shard, each from its own directory.
  ASSERT_EQ(cycle.recoveries.size(), 2u);
  EXPECT_EQ(cycle.recoveries[0].shard, 0u);
  EXPECT_EQ(cycle.recoveries[1].shard, 1u);
  // The harness takes the slowest shard as the recovery wall.
  double slowest = 0.0;
  for (const auto& rec : cycle.recoveries)
    slowest = std::max(slowest, rec.modeled_seconds);
  EXPECT_DOUBLE_EQ(cycle.recovery_seconds, slowest);
  EXPECT_GE(cycle.first_reply, cycle.resume_time);
}

// The nastiest crash instant: exactly the epoch-swap boundary. In
// quiesce mode the swap fires the moment the max_buffered-th update
// arrives, so a restart scheduled at precisely that arrival races the
// swap at the same virtual instant (faults cut ahead of same-instant
// work). Conservation must still hold, recovery must replay a
// consistent prefix, and the recovered generation must reply in finite
// time — no request double-counted, lost, or stuck behind a half-swap.
TEST_F(RestartServingTest, RestartExactlyOnEpochSwapBoundary) {
  const auto topo = small_topo();
  auto opts = serving_options(dir_.string());
  const auto stream = update_heavy_stream(topo);

  // The swap instant, read straight off the stream: the arrival that
  // fills the epoch buffer to max_buffered is when the quiesce epoch
  // triggers (ShardedServer::next_epoch_time returns `now` once
  // size_ready). No probe run needed — arrivals are deterministic.
  std::size_t updates = 0;
  double swap_at = -1.0;
  for (const auto& r : stream) {
    if (r.kind != serve::RequestKind::kUpdate) continue;
    if (++updates == opts.epoch.max_buffered) {
      swap_at = r.arrival;
      break;
    }
  }
  ASSERT_GT(swap_at, 0.0) << "stream too short to fill an epoch";

  char spec[96];
  std::snprintf(spec, sizeof spec, "restart@%.17g:down=0.001,torn=32", swap_at);
  opts.faults = fault::FaultPlan::parse(spec);
  ASSERT_DOUBLE_EQ(opts.faults.events[0].at, swap_at);

  const RestartReport report = run_with_restarts(topo, opts, stream);
  ASSERT_EQ(report.segments.size(), 2u);
  ASSERT_EQ(report.cycles.size(), 1u);
  const RestartCycle& cycle = report.cycles[0];
  EXPECT_DOUBLE_EQ(cycle.crash_time, swap_at);

  // Finite TTFR: the recovered generation actually replied.
  ASSERT_TRUE(std::isfinite(cycle.first_reply));
  EXPECT_GE(cycle.first_reply, cycle.resume_time);
  EXPECT_GT(cycle.ttfr_seconds(), 0.0);

  // Conservation across the boundary crash: every arrival lands in
  // exactly one generation, and each generation accounts for its own.
  std::uint64_t arrivals = 0;
  for (const auto& seg : report.segments) {
    EXPECT_EQ(seg.arrivals, seg.admitted + seg.dropped);
    EXPECT_EQ(seg.responses.size(), seg.arrivals);
    arrivals += seg.arrivals;
  }
  EXPECT_EQ(arrivals, stream.size());

  // Recovery saw a consistent prefix: snapshot and/or log replay, never
  // a torn half-epoch (the recovery layer would throw on one).
  const persist::RecoveryReport& rec = cycle.recoveries[0];
  EXPECT_TRUE(rec.from_snapshot || rec.batches_replayed > 0 || rec.rebuilt);

  // Boundary crashes replay deterministically too.
  auto opts_b = serving_options((dir_ / "replay").string());
  opts_b.faults = fault::FaultPlan::parse(spec);
  const RestartReport again = run_with_restarts(topo, opts_b, stream);
  ASSERT_EQ(again.segments.size(), report.segments.size());
  for (std::size_t i = 0; i < report.segments.size(); ++i) {
    EXPECT_EQ(again.segments[i].completed, report.segments[i].completed);
    EXPECT_EQ(again.segments[i].epochs, report.segments[i].epochs);
  }
  EXPECT_DOUBLE_EQ(again.cycles[0].ttfr_seconds(), cycle.ttfr_seconds());
}

TEST_F(RestartServingTest, ReplayIsBitIdentical) {
  const auto topo = small_topo();
  const auto stream = update_heavy_stream(topo);

  const auto run_once = [&](const std::filesystem::path& dir) {
    auto opts = serving_options(dir.string());
    opts.faults = fault::FaultPlan::parse("restart@0.004:down=0.001,torn=32");
    return run_with_restarts(topo, opts, stream);
  };
  const auto a = run_once(dir_ / "a");
  const auto b = run_once(dir_ / "b");

  ASSERT_EQ(a.segments.size(), b.segments.size());
  for (std::size_t i = 0; i < a.segments.size(); ++i) {
    EXPECT_EQ(a.segments[i].completed, b.segments[i].completed);
    EXPECT_EQ(a.segments[i].epochs, b.segments[i].epochs);
    EXPECT_EQ(a.segments[i].log_batches, b.segments[i].log_batches);
    EXPECT_EQ(a.segments[i].snapshots_written, b.segments[i].snapshots_written);
  }
  ASSERT_EQ(a.cycles.size(), b.cycles.size());
  for (std::size_t i = 0; i < a.cycles.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.cycles[i].ttfr_seconds(), b.cycles[i].ttfr_seconds());
    ASSERT_EQ(a.cycles[i].recoveries.size(), b.cycles[i].recoveries.size());
    for (std::size_t s = 0; s < a.cycles[i].recoveries.size(); ++s) {
      EXPECT_EQ(a.cycles[i].recoveries[s].csv_row(),
                b.cycles[i].recoveries[s].csv_row());
    }
  }
}

}  // namespace
}  // namespace harmonia::shard
