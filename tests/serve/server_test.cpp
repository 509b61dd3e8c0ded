// System tests of the serving event loop: the serving path must return
// exactly what the offline index would (differentially, across update
// epochs), the deadline trigger must bound tail queueing delay, and
// overload must shed load instead of growing the queue.
#include <gtest/gtest.h>

#include "queries/workload.hpp"
#include "serve/workload.hpp"
#include "serving_oracle.hpp"
#include "shard/sharded_server.hpp"

namespace harmonia::serve {
namespace {

using namespace testing_support;

// Acceptance: the serving path returns, for every admitted request, the
// answer the offline index would give for the epoch it was served under —
// across >= 3 interleaved query/update epochs (point and range lanes).
TEST(Server, DifferentialOracleAcrossEpochs) {
  ServerFixture f;

  OpenLoopSpec spec;
  spec.arrivals_per_second = 5e6;
  spec.count = 6000;
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

  shard::ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);

  ASSERT_EQ(rep.dropped, 0u);
  ASSERT_EQ(rep.responses.size(), stream.size());
  EXPECT_GE(rep.epochs, 3u);
  // Quiesce epochs close every max_buffered updates, so the snapshots
  // are the stream replayed in arrival order and cut by count.
  ASSERT_NO_FATAL_FAILURE(expect_epochs_by_count(stream, rep, cfg.epoch.max_buffered));
  const auto snapshots = epoch_snapshots(f.keys, stream, rep);
  ASSERT_GE(snapshots.size(), 4u) << "workload must span >= 3 update epochs";
  ASSERT_NO_FATAL_FAILURE(
      check_responses(stream, rep, snapshots, cfg.batch.max_range_results));
  EXPECT_GT(count_responses(rep, RequestKind::kPoint), 3000u);
  EXPECT_GT(count_responses(rep, RequestKind::kRange), 400u);

  // After the run, the index itself must equal the final snapshot.
  f.index.tree().validate();
  ASSERT_EQ(f.index.tree().num_keys(), snapshots.back().size());
  expect_host_reads(f.index, snapshots.back());
}

// Acceptance: the deadline trigger bounds p99 queueing delay; widening
// the deadline shifts the whole latency distribution up.
TEST(Server, DeadlineBoundsTailQueueingDelay) {
  auto run_with_wait = [](double max_wait) {
    ServerFixture f;
    OpenLoopSpec spec;
    spec.arrivals_per_second = 2e6;  // well under capacity: waiting is
    spec.count = 8000;               // deadline-dominated, not contention
    spec.seed = 7;
    const auto stream = make_open_loop(f.keys, spec);

    ServeOptions cfg;
    cfg.batch.max_batch = 4096;  // size trigger out of the way
    cfg.batch.max_wait = max_wait;
    shard::ShardedServer server(f.index, cfg);
    return server.run(stream);
  };

  const auto tight = run_with_wait(50e-6);
  const auto loose = run_with_wait(400e-6);

  // p99 queueing delay stays within deadline + one batch's service time.
  const double service_allowance = 50e-6;
  EXPECT_LE(tight.queue_delay.percentile(99), 50e-6 + service_allowance);
  EXPECT_LE(loose.queue_delay.percentile(99), 400e-6 + service_allowance);
  // The frontier: longer deadline -> bigger batches, higher tail latency.
  EXPECT_GT(loose.batch_size.mean(), tight.batch_size.mean());
  EXPECT_GT(loose.latency.percentile(99), tight.latency.percentile(99));
  EXPECT_EQ(tight.dropped, 0u);
  EXPECT_EQ(loose.dropped, 0u);
}

// Acceptance: under overload the bounded queue rejects; the backlog (and
// hence queueing delay) stays bounded instead of growing with the stream.
TEST(Server, OverloadShedsLoadInsteadOfGrowingQueue) {
  ServerFixture f;
  OpenLoopSpec spec;
  spec.arrivals_per_second = 500e6;  // far beyond device capacity
  spec.count = 20000;
  spec.seed = 11;
  const auto stream = make_open_loop(f.keys, spec);

  ServeOptions cfg;
  cfg.batch.max_batch = 256;
  cfg.batch.max_wait = 50e-6;
  cfg.batch.queue_capacity = 1024;
  shard::ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);

  EXPECT_GT(rep.dropped, 0u);
  EXPECT_EQ(rep.admitted + rep.dropped, rep.arrivals);
  EXPECT_EQ(rep.responses.size(), stream.size());  // every request answered
  EXPECT_EQ(rep.completed + rep.dropped, rep.arrivals);
  // The sampled backlog never exceeds the bound.
  EXPECT_LE(rep.queue_depth.max(), static_cast<double>(cfg.batch.queue_capacity));

  // Doubling the length of the overload must not move the worst queueing
  // delay: it is a function of the queue bound, not of how long the
  // overload lasts. (Without backpressure it would roughly double.)
  OpenLoopSpec longer = spec;
  longer.count = 2 * spec.count;
  const auto stream2 = make_open_loop(f.keys, longer);
  ServerFixture f2;
  shard::ShardedServer server2(f2.index, cfg);
  const auto rep2 = server2.run(stream2);
  EXPECT_GT(rep2.dropped, rep.dropped);  // shedding scales with the stream
  EXPECT_LE(rep2.queue_delay.max(), rep.queue_delay.max() * 1.25);
}

TEST(Server, ClosedLoopNeverOverflowsClientPopulation) {
  ServerFixture f;
  ClosedLoopSpec spec;
  spec.clients = 32;
  spec.think_seconds = 10e-6;
  spec.total_requests = 2000;
  spec.seed = 3;
  ClosedLoopSource source(f.keys, spec);

  ServeOptions cfg;
  cfg.batch.max_batch = 64;
  cfg.batch.max_wait = 30e-6;
  shard::ShardedServer server(f.index, cfg);
  const auto rep = server.run(source);

  EXPECT_EQ(source.issued(), 2000u);
  EXPECT_EQ(rep.completed, 2000u);
  EXPECT_EQ(rep.dropped, 0u);
  // At most `clients` requests can ever wait.
  EXPECT_LE(rep.queue_depth.max(), 32.0);
  // Every response's latency includes its wait + service, never negative.
  EXPECT_GE(rep.latency.min(), 0.0);
}

// Serving must be a pure replay: same stream, same config -> identical
// virtual-clock trace.
TEST(Server, DeterministicReplay) {
  OpenLoopSpec spec;
  spec.arrivals_per_second = 4e6;
  spec.count = 3000;
  spec.update_fraction = 0.1;
  spec.seed = 5;

  auto run_once = [&] {
    ServerFixture f;
    const auto stream = make_open_loop(f.keys, spec);
    ServeOptions cfg;
    cfg.batch.max_batch = 128;
    cfg.batch.max_wait = 80e-6;
    cfg.epoch.max_buffered = 100;
    shard::ShardedServer server(f.index, cfg);
    return server.run(stream);
  };

  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.responses.size(), b.responses.size());
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    EXPECT_EQ(a.responses[i].id, b.responses[i].id);
    EXPECT_DOUBLE_EQ(a.responses[i].completion, b.responses[i].completion);
    EXPECT_EQ(a.responses[i].value, b.responses[i].value);
  }
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.epochs, b.epochs);
}

}  // namespace
}  // namespace harmonia::serve
