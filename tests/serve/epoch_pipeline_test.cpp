// System tests of the double-buffered overlap epoch pipeline
// (docs/serving.md#epoch-pipeline): queries served through a background
// build + upload + atomic swap must still match a per-epoch snapshot
// oracle, epoch versions must be monotone in completion order, the
// report must attribute build/upload/swap-wait/stall separately per
// mode, thousands of back-to-back swaps must survive a multi-threaded
// apply (the TSan target), the apply's thread count must leave every
// response and report field alone, and ServeOptions::validate must
// reject every inconsistent combination before any serving state exists.
//
// The overlap oracle derives epoch membership from the update responses
// (serving_oracle.hpp): while an epoch is in flight the buffer keeps
// growing, so a later epoch can apply more than max_buffered updates.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/expect.hpp"
#include "queries/workload.hpp"
#include "serve/options.hpp"
#include "serve/workload.hpp"
#include "report_compare.hpp"
#include "serving_oracle.hpp"
#include "shard/sharded_server.hpp"

namespace harmonia::serve {
namespace {

using namespace testing_support;

// Acceptance: with the double-buffered pipeline swapping images mid
// stream, every point/range answer still matches the snapshot for the
// epoch it reports — build/upload overlap never leaks a torn image.
TEST(EpochPipeline, OverlapDifferentialOracleAcrossEpochs) {
  ServerFixture f;

  OpenLoopSpec spec;
  spec.arrivals_per_second = 5e6;
  spec.count = 8000;
  spec.update_fraction = 0.25;
  spec.range_fraction = 0.10;
  spec.range_span = 8;
  spec.seed = 42;
  const auto stream = make_open_loop(f.keys, spec);

  ServeOptions cfg;
  cfg.batch.max_batch = 256;
  cfg.batch.max_wait = 100e-6;
  cfg.batch.queue_capacity = 8192;  // no drops: every request needs an oracle check
  cfg.batch.max_range_results = 16;
  cfg.epoch.max_buffered = 400;
  cfg.epoch.mode = EpochMode::kOverlap;

  shard::ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);

  ASSERT_EQ(rep.dropped, 0u);
  ASSERT_EQ(rep.responses.size(), stream.size());
  ASSERT_GE(rep.epochs, 3u) << "workload must span >= 3 swapped epochs";

  const auto snapshots = epoch_snapshots(f.keys, stream, rep);
  ASSERT_EQ(snapshots.size(), rep.epochs + 1);
  ASSERT_NO_FATAL_FAILURE(
      check_responses(stream, rep, snapshots, cfg.batch.max_range_results));
  EXPECT_GT(count_responses(rep, RequestKind::kPoint), 3000u);
  EXPECT_GT(count_responses(rep, RequestKind::kRange), 400u);

  // After the run, the live index equals the final snapshot: the last
  // swap (or final drain) installed every buffered update.
  f.index.tree().validate();
  ASSERT_EQ(f.index.tree().num_keys(), snapshots.back().size());
  expect_host_reads(f.index, snapshots.back());
}

// Acceptance: the report splits epoch cost into build | upload | swap
// wait | stall, and the split matches the mode's contract — quiesce
// stalls the device and never waits on a swap; overlap swaps and only
// stalls in the final close-out drain (strictly less than quiesce).
TEST(EpochPipeline, ReportAttributesStallAndSwapPerMode) {
  OpenLoopSpec spec;
  spec.arrivals_per_second = 4e6;
  spec.count = 6000;
  spec.update_fraction = 0.2;
  spec.seed = 9;

  auto run_mode = [&](EpochMode mode) {
    ServerFixture f;
    const auto stream = make_open_loop(f.keys, spec);
    ServeOptions cfg;
    cfg.batch.max_batch = 256;
    cfg.epoch.max_buffered = 200;
    cfg.epoch.mode = mode;
    shard::ShardedServer server(f.index, cfg);
    return server.run(stream);
  };

  const auto quiesce = run_mode(EpochMode::kQuiesce);
  const auto overlap = run_mode(EpochMode::kOverlap);

  ASSERT_GE(quiesce.epochs, 3u);
  ASSERT_GE(overlap.epochs, 3u);

  // Both modes pay the CPU build and the PCIe upload.
  EXPECT_GT(quiesce.epoch_build_seconds, 0.0);
  EXPECT_GT(quiesce.epoch_upload_seconds, 0.0);
  EXPECT_GT(overlap.epoch_build_seconds, 0.0);
  EXPECT_GT(overlap.epoch_upload_seconds, 0.0);

  // Quiesce: the device eats build+upload as serving stall; there is no
  // staged image to wait on.
  EXPECT_DOUBLE_EQ(quiesce.epoch_swap_wait_seconds, 0.0);
  EXPECT_GT(quiesce.epoch_stall_seconds, 0.0);
  EXPECT_NEAR(quiesce.epoch_stall_seconds,
              quiesce.epoch_build_seconds + quiesce.epoch_upload_seconds, 1e-9);

  // Overlap: swaps are free on the device; only the final drain (which
  // quiesces for leftovers) may stall, so overlap stalls strictly less.
  EXPECT_GE(overlap.epoch_swap_wait_seconds, 0.0);
  EXPECT_LT(overlap.epoch_stall_seconds, quiesce.epoch_stall_seconds);
  EXPECT_LT(overlap.busy_seconds, quiesce.busy_seconds);
}

// A stream with no updates must be bit-identical across modes: the
// pipeline only exists at epoch triggers, and there are none.
TEST(EpochPipeline, ZeroUpdateStreamIdenticalAcrossModes) {
  OpenLoopSpec spec;
  spec.arrivals_per_second = 4e6;
  spec.count = 4000;
  spec.update_fraction = 0.0;
  spec.range_fraction = 0.05;
  spec.seed = 17;

  auto run_mode = [&](EpochMode mode) {
    ServerFixture f;
    const auto stream = make_open_loop(f.keys, spec);
    ServeOptions cfg;
    cfg.batch.max_batch = 128;
    cfg.epoch.mode = mode;
    shard::ShardedServer server(f.index, cfg);
    return server.run(stream);
  };

  const auto a = run_mode(EpochMode::kQuiesce);
  const auto b = run_mode(EpochMode::kOverlap);

  EXPECT_EQ(a.epochs, 0u);
  EXPECT_EQ(b.epochs, 0u);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.batches, b.batches);
  ASSERT_EQ(a.responses.size(), b.responses.size());
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    EXPECT_EQ(a.responses[i].id, b.responses[i].id);
    EXPECT_DOUBLE_EQ(a.responses[i].completion, b.responses[i].completion);
    EXPECT_EQ(a.responses[i].value, b.responses[i].value);
  }
}

// TSan target: thousands of back-to-back staged epochs, each building in
// the host tree with a multi-threaded Algorithm-1 apply while the serving
// loop keeps dispatching. Properties: reported epoch versions are
// monotone in completion order (a later completion never sees an older
// image), and the final tree equals the all-updates-applied oracle
// regardless of how the swaps grouped the buffer. A fast link + a free
// modeled apply shrink each epoch to a few microseconds so the run
// really crosses ~2000 swaps in a fraction of a second.
TEST(EpochPipeline, ThousandsOfBackToBackSwapsStayMonotonic) {
  ServerFixture f;

  OpenLoopSpec spec;
  spec.arrivals_per_second = 5e6;
  spec.count = 60000;
  spec.update_fraction = 0.5;
  spec.seed = 23;
  const auto stream = make_open_loop(f.keys, spec);

  ServeOptions cfg;
  cfg.batch.max_batch = 256;
  cfg.batch.queue_capacity = 1 << 16;
  cfg.epoch.max_buffered = 8;  // a swap every few batches
  cfg.epoch.apply_threads = 2;
  cfg.epoch.seconds_per_op = 0.0;
  cfg.epoch.mode = EpochMode::kOverlap;
  cfg.link.gigabytes_per_second = 100.0;
  cfg.link.latency_seconds = 1e-6;

  shard::ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);

  ASSERT_EQ(rep.dropped, 0u);
  EXPECT_GE(rep.epochs, 1500u) << "stress must cross thousands of swaps";

  // Monotone epochs: order completions; when virtual time strictly
  // advances, the reported epoch may only grow.
  std::vector<const Response*> by_completion;
  by_completion.reserve(rep.responses.size());
  for (const auto& resp : rep.responses) by_completion.push_back(&resp);
  std::stable_sort(by_completion.begin(), by_completion.end(),
                   [](const Response* a, const Response* b) {
                     return a->completion < b->completion;
                   });
  double last_t = -1.0;
  unsigned max_epoch_at_t = 0;
  for (const Response* resp : by_completion) {
    if (resp->completion > last_t) {
      ASSERT_GE(resp->epoch, max_epoch_at_t)
          << "epoch went backwards at t=" << resp->completion;
      last_t = resp->completion;
    }
    max_epoch_at_t = std::max(max_epoch_at_t, resp->epoch);
    ASSERT_LE(resp->epoch, rep.epochs);
  }

  f.index.tree().validate();

  // Final state: epoch grouping must not change what ends up applied.
  // The two-worker apply deals ops by leaf, so every key's ops apply in
  // arrival order and the arrival-order oracle holds for it directly.
  Oracle oracle = initial_oracle(f.keys);
  for (const Request& r : stream) {
    if (r.kind == RequestKind::kUpdate) apply_op(oracle, r);
  }
  ASSERT_EQ(f.index.tree().num_keys(), oracle.size());
  expect_host_reads(f.index, oracle);
}

// The Algorithm-1 thread count is construction-time only because nothing
// on the virtual clock depends on it: BatchUpdater::apply deals ops by
// leaf, so any thread count gives the one-thread result, and an epoch's
// build is charged per op. One sharded stream of points, straddling
// ranges and updates must serve identically at 1 and 4 apply threads in
// every epoch mode: every response and every report field.
TEST(EpochPipeline, ApplyThreadsLeaveTheVirtualClockAlone) {
  const auto keys = queries::make_tree_keys(1 << 12, 1);
  const auto entries = entries_for(keys);

  OpenLoopSpec spec;
  spec.arrivals_per_second = 5e6;
  spec.count = 6000;
  spec.update_fraction = 0.3;
  spec.range_fraction = 0.1;
  spec.range_span = 1024;  // about a shard's span: many ranges straddle
  spec.seed = 31;
  const auto stream = make_open_loop(keys, spec);

  shard::ShardedOptions shopts = sharded_options();
  // Gapless leaves: delta-mode inserts land in the small overlay below,
  // so compaction epochs fold real Algorithm-1 work on every shard.
  shopts.index.fill_factor = 1.0;
  shopts.device = small_device(kServerDeviceBytes);

  for (const EpochMode mode :
       {EpochMode::kQuiesce, EpochMode::kOverlap, EpochMode::kIncremental}) {
    SCOPED_TRACE(::testing::Message() << "epoch mode " << static_cast<int>(mode));
    const auto run = [&](unsigned threads) {
      shard::ShardedIndex index(entries, shard::ShardPlan::sample_balanced(keys, 3), shopts);
      ServeOptions cfg;
      cfg.batch.max_batch = 256;
      cfg.batch.max_wait = 80e-6;
      cfg.batch.queue_capacity = 8192;
      cfg.batch.max_range_results = 16;
      cfg.epoch.max_buffered = 200;
      cfg.epoch.mode = mode;
      cfg.epoch.overlay_capacity = 64;  // delta: both patch and compaction epochs
      cfg.epoch.apply_threads = threads;
      shard::ShardedServer server(index, cfg);
      return server.run(stream);
    };
    const ServerReport one = run(1);
    const ServerReport four = run(4);
    ASSERT_GE(one.epochs, 3u);
    ASSERT_GT(one.split_ranges, 0u);
    if (mode == EpochMode::kIncremental) {
      EXPECT_GT(one.patch_epochs, 0u);
      EXPECT_GT(one.compaction_epochs, 0u);
    }
    expect_same_report(one, four);
  }
}

// The overlap pipeline must stay a pure replay even with a threaded
// apply: the virtual clock, not thread scheduling, orders every event.
TEST(EpochPipeline, DeterministicReplayWithThreadedApply) {
  OpenLoopSpec spec;
  spec.arrivals_per_second = 4e6;
  spec.count = 3000;
  spec.update_fraction = 0.2;
  spec.seed = 5;

  auto run_once = [&] {
    ServerFixture f;
    const auto stream = make_open_loop(f.keys, spec);
    ServeOptions cfg;
    cfg.batch.max_batch = 128;
    cfg.batch.max_wait = 80e-6;
    cfg.epoch.max_buffered = 100;
    cfg.epoch.apply_threads = 2;
    cfg.epoch.mode = EpochMode::kOverlap;
    shard::ShardedServer server(f.index, cfg);
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
  EXPECT_DOUBLE_EQ(a.epoch_swap_wait_seconds, b.epoch_swap_wait_seconds);
}

// ServeOptions::validate is the single gate every entry point passes
// through; each inconsistent combination must throw before any serving
// state is built.
TEST(ServeOptionsValidate, RejectsInconsistentCombinations) {
  {
    ServeOptions opts;
    EXPECT_NO_THROW(opts.validate(1));
    EXPECT_NO_THROW(opts.validate(4));
  }
  {
    ServeOptions opts;
    opts.batch.queue_capacity = 100;
    opts.batch.max_batch = 200;  // trigger can never fire
    EXPECT_THROW(opts.validate(1), ContractViolation);
  }
  {
    ServeOptions opts;
    opts.batch.max_batch = 0;
    EXPECT_THROW(opts.validate(1), ContractViolation);
  }
  {
    ServeOptions opts;
    opts.epoch.max_buffered = 0;
    EXPECT_THROW(opts.validate(1), ContractViolation);
  }
  {
    ServeOptions opts;
    opts.epoch.apply_threads = 0;
    EXPECT_THROW(opts.validate(1), ContractViolation);
  }
  {
    ServeOptions opts;
    opts.link.gigabytes_per_second = 0.0;
    EXPECT_THROW(opts.validate(1), ContractViolation);
  }
  {
    ServeOptions opts;
    opts.mitigation.retry.max_attempts = 0;
    EXPECT_THROW(opts.validate(1), ContractViolation);
  }
  {
    // One retained snapshot leaves a torn newest image no predecessor.
    ServeOptions opts;
    opts.persist.dir = "unused";
    opts.persist.retain = 1;
    EXPECT_THROW(opts.validate(1), ContractViolation);
    opts.persist.retain = 2;
    EXPECT_NO_THROW(opts.validate(1));
  }
  {
    // A fault event must target an existing shard.
    ServeOptions opts;
    fault::FaultEvent e;
    e.kind = fault::FaultKind::kDispatchFailure;
    e.at = 1e-3;
    e.shard = 2;
    opts.faults.events.push_back(e);
    EXPECT_THROW(opts.validate(2), ContractViolation);
    EXPECT_NO_THROW(opts.validate(3));
  }
  {
    // Shard loss needs somewhere to fail over to.
    ServeOptions opts;
    fault::FaultEvent e;
    e.kind = fault::FaultKind::kShardLost;
    e.at = 1e-3;
    e.shard = 0;
    e.duration = 1e-3;
    opts.faults.events.push_back(e);
    EXPECT_THROW(opts.validate(1), ContractViolation);
    EXPECT_NO_THROW(opts.validate(2));
  }
}

// The CLI entry point rejects a bad --epoch-mode with the same exception
// the option structs use (tools translate it to exit code 2).
TEST(ServeOptionsValidate, FromCliRejectsUnknownEpochMode) {
  Cli cli;
  ServeOptions::add_flags(cli);
  const char* argv[] = {"prog", "--epoch-mode=bogus"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_THROW(ServeOptions::from_cli(cli), ContractViolation);

  Cli ok;
  ServeOptions::add_flags(ok);
  const char* argv2[] = {"prog", "--epoch-mode=overlap", "--apply-threads=2"};
  ASSERT_TRUE(ok.parse(3, argv2));
  const auto opts = ServeOptions::from_cli(ok);
  EXPECT_EQ(opts.epoch.mode, EpochMode::kOverlap);
  EXPECT_EQ(opts.epoch.apply_threads, 2u);
  EXPECT_NO_THROW(opts.validate(1));
}

}  // namespace
}  // namespace harmonia::serve
