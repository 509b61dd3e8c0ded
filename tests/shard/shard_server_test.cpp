// System tests of the sharded serving path: every response must match a
// per-epoch snapshot oracle (no response is ever served from a
// half-updated cross-shard epoch), straddling ranges must reassemble
// correctly, overload must shed instead of growing any shard's queue,
// and the whole multi-device simulation must replay deterministically.
// Quiesce epochs here close every max_buffered updates: each oracle test
// checks that rule on the update responses before it trusts the
// snapshots rebuilt from them.
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

/// Runs the sharded server over `stream` and checks every response
/// against the snapshot for the epoch it reports — the atomicity pin: a
/// response served from a half-updated cross-shard state could not match
/// any whole-epoch snapshot. The report lands in *out (gtest ASSERT
/// requires a void function).
void run_and_check_oracle(ShardedFixture& f,
                          const std::vector<serve::Request>& stream,
                          const serve::ServeOptions& cfg,
                          serve::ServerReport* out) {
  ShardedServer server(f.index, cfg);
  const auto& rep = *out = server.run(stream);

  EXPECT_EQ(rep.dropped, 0u);
  EXPECT_EQ(rep.responses.size(), stream.size());
  ASSERT_NO_FATAL_FAILURE(expect_epochs_by_count(stream, rep, cfg.epoch.max_buffered));
  const auto snapshots = epoch_snapshots(f.keys, stream, rep);
  ASSERT_NO_FATAL_FAILURE(
      check_responses(stream, rep, snapshots, cfg.batch.max_range_results));

  // After the run, the sharded index equals the final snapshot.
  EXPECT_EQ(f.index.num_keys(), snapshots.back().size());
  expect_host_reads(f.index, snapshots.back());
}

// Acceptance: >= 3 cross-shard update epochs with multi-threaded applies
// interleaved with point and straddling range queries — every admitted
// request answered exactly as a whole-epoch snapshot would.
TEST(ShardedServer, DifferentialOracleAcrossEpochs) {
  ShardedFixture f(4);

  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 5e6;
  spec.count = 6000;
  spec.update_fraction = 0.25;
  spec.range_fraction = 0.10;
  spec.range_span = 64;  // wide enough to straddle partition boundaries
  spec.seed = 42;
  const auto stream = serve::make_open_loop(f.keys, spec);

  serve::ServeOptions cfg;
  cfg.batch.max_batch = 256;
  cfg.batch.max_wait = 100e-6;
  cfg.batch.queue_capacity = 8192;  // no drops: every request oracle-checked
  cfg.batch.max_range_results = 16;
  cfg.epoch.max_buffered = 400;
  cfg.epoch.apply_threads = 2;

  serve::ServerReport rep;
  run_and_check_oracle(f, stream, cfg, &rep);
  EXPECT_GE(rep.epochs, 3u);
  EXPECT_GT(rep.split_ranges, 0u);  // boundary-straddling fan-outs happened
  EXPECT_GE(rep.barrier_wait_seconds, 0.0);
  // Balanced partition + uniform stream: every shard served real work.
  for (unsigned s = 0; s < 4; ++s) {
    EXPECT_GT(rep.shard_batches[s], 0u) << "shard " << s;
    EXPECT_GT(rep.shard_queries[s], 0u) << "shard " << s;
  }
}

// Stress: frequent epochs (small buffer) x many wide ranges, so nearly
// every fan-out brackets one or more barriers. Any shard resuming early
// or late would surface as a part-vs-snapshot mismatch (or trip the
// internal same-epoch assertion inside the merge).
TEST(ShardedServer, EpochBarrierKeepsFanOutsAtomic) {
  for (const unsigned shards : {2u, 5u}) {
    SCOPED_TRACE(testing::Message() << shards << " shards");
    ShardedFixture f(shards);

    serve::OpenLoopSpec spec;
    spec.arrivals_per_second = 4e6;
    spec.count = 5000;
    spec.update_fraction = 0.30;
    spec.range_fraction = 0.30;
    spec.range_span = 1024;  // ~a quarter of each shard's key span
    spec.seed = 9;
    const auto stream = serve::make_open_loop(f.keys, spec);

    serve::ServeOptions cfg;
    cfg.batch.max_batch = 128;
    cfg.batch.max_wait = 80e-6;
    cfg.batch.queue_capacity = 1 << 14;
    cfg.batch.max_range_results = 12;
    cfg.epoch.max_buffered = 150;  // many epochs
    cfg.epoch.apply_threads = 3;

    serve::ServerReport rep;
    run_and_check_oracle(f, stream, cfg, &rep);
    EXPECT_GE(rep.epochs, 8u);
    if (shards > 1) {
      EXPECT_GT(rep.split_ranges, 100u);
      EXPECT_GT(rep.barrier_wait_seconds, 0.0);
    }
  }
}

// Under overload every shard's bounded queues reject rather than grow;
// the aggregate backlog stays bounded by the per-shard capacities.
TEST(ShardedServer, OverloadShedsLoadInsteadOfGrowingQueues) {
  ShardedFixture f(4);
  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 500e6;  // far beyond aggregate capacity
  spec.count = 20000;
  spec.range_fraction = 0.05;
  spec.range_span = 64;
  spec.seed = 11;
  const auto stream = serve::make_open_loop(f.keys, spec);

  serve::ServeOptions cfg;
  cfg.batch.max_batch = 256;
  cfg.batch.max_wait = 50e-6;
  cfg.batch.queue_capacity = 512;
  ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);

  EXPECT_GT(rep.dropped, 0u);
  EXPECT_EQ(rep.admitted + rep.dropped, rep.arrivals);
  EXPECT_EQ(rep.responses.size(), stream.size());  // every request answered
  // Total depth across 4 shards x 2 lanes never exceeds the bounds.
  EXPECT_LE(rep.queue_depth.max(),
            static_cast<double>(4 * 2 * cfg.batch.queue_capacity));
}

TEST(ShardedServer, ClosedLoopNeverOverflowsClientPopulation) {
  ShardedFixture f(3);
  serve::ClosedLoopSpec spec;
  spec.clients = 32;
  spec.think_seconds = 10e-6;
  spec.total_requests = 2000;
  spec.seed = 3;
  serve::ClosedLoopSource source(f.keys, spec);

  serve::ServeOptions cfg;
  cfg.batch.max_batch = 64;
  cfg.batch.max_wait = 30e-6;
  ShardedServer server(f.index, cfg);
  const auto rep = server.run(source);

  EXPECT_EQ(source.issued(), 2000u);
  EXPECT_EQ(rep.completed, 2000u);
  EXPECT_EQ(rep.dropped, 0u);
  EXPECT_LE(rep.queue_depth.max(), 32.0);
  EXPECT_GE(rep.latency.min(), 0.0);
}

// Sharded serving must be a pure replay: same stream, same partition,
// same config -> identical virtual-clock trace across all devices.
// A quiesce epoch prices the fleet build once: the summed fold counts
// times the per-op price. With this split, pricing shard by shard and
// summing lands one ulp away, so the bits pin the floating-point order.
// Both quiesce entries take it: the size trigger and the final drain.
TEST(ShardedServer, QuiesceBuildPricesSummedOpsOnce) {
  const std::uint64_t per_shard[] = {5, 11, 7, 2};
  const double price = 250e-9;
  double shard_by_shard = 0.0;
  std::uint64_t total = 0;
  for (const std::uint64_t n : per_shard) {
    shard_by_shard += static_cast<double>(n) * price;
    total += n;
  }
  const double once = static_cast<double>(total) * price;
  ASSERT_NE(once, shard_by_shard);

  for (const std::size_t max_buffered : {std::size_t{25}, std::size_t{1000}}) {
    SCOPED_TRACE(testing::Message() << "max_buffered " << max_buffered);
    ShardedFixture f(4);
    std::uint64_t left[] = {5, 11, 7, 2};
    std::vector<serve::Request> stream;
    for (const Key k : f.keys) {
      const unsigned s = f.index.plan().shard_of(k);
      if (left[s] == 0) continue;
      --left[s];
      serve::Request r;
      r.id = stream.size();
      r.kind = serve::RequestKind::kUpdate;
      r.arrival = 1e-6 * static_cast<double>(stream.size());
      r.key = k;
      r.value = k ^ 1;
      stream.push_back(r);
    }
    ASSERT_EQ(stream.size(), total);
    serve::ServeOptions cfg;
    cfg.epoch.max_buffered = max_buffered;
    cfg.epoch.seconds_per_op = price;
    ShardedServer server(f.index, cfg);
    const auto rep = server.run(stream);
    ASSERT_EQ(rep.epochs, 1u);
    EXPECT_EQ(rep.updates_applied, total);
    EXPECT_EQ(rep.updates_failed, 0u);
    EXPECT_EQ(rep.epoch_build_seconds, once)
        << std::hexfloat << rep.epoch_build_seconds << " vs " << once;
  }
}

TEST(ShardedServer, DeterministicReplay) {
  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 4e6;
  spec.count = 3000;
  spec.update_fraction = 0.1;
  spec.range_fraction = 0.1;
  spec.range_span = 128;
  spec.seed = 5;

  auto run_once = [&] {
    ShardedFixture f(4);
    const auto stream = serve::make_open_loop(f.keys, spec);
    serve::ServeOptions cfg;
    cfg.batch.max_batch = 128;
    cfg.batch.max_wait = 80e-6;
    cfg.epoch.max_buffered = 100;
    ShardedServer server(f.index, cfg);
    return server.run(stream);
  };

  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.responses.size(), b.responses.size());
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    EXPECT_EQ(a.responses[i].id, b.responses[i].id);
    EXPECT_DOUBLE_EQ(a.responses[i].completion, b.responses[i].completion);
    EXPECT_EQ(a.responses[i].value, b.responses[i].value);
    EXPECT_EQ(a.responses[i].range_values, b.responses[i].range_values);
  }
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.split_ranges, b.split_ranges);
  EXPECT_DOUBLE_EQ(a.barrier_wait_seconds, b.barrier_wait_seconds);
}

// Regression: per-shard admission counters must tally each request
// exactly once at its routing point. Counting at the shard queues
// double-counts straddling fan-outs and misses all-or-nothing probe
// drops; these vectors must instead sum to the stream-level counters
// even when both effects are in play.
TEST(ShardedServer, PerShardCountersSumOnceToStreamTotals) {
  ShardedFixture f(4);
  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 100e6;  // overload: probe drops happen
  spec.count = 12000;
  spec.update_fraction = 0.10;
  spec.range_fraction = 0.20;  // wide ranges: fan-outs happen
  spec.range_span = 512;
  spec.seed = 17;
  const auto stream = serve::make_open_loop(f.keys, spec);

  serve::ServeOptions cfg;
  cfg.batch.max_batch = 128;
  cfg.batch.max_wait = 50e-6;
  cfg.batch.queue_capacity = 512;
  cfg.epoch.max_buffered = 400;
  ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);

  ASSERT_GT(rep.dropped, 0u);       // both failure modes exercised
  ASSERT_GT(rep.split_ranges, 0u);
  EXPECT_EQ(rep.responses.size(), stream.size());
  EXPECT_EQ(rep.admitted + rep.dropped, rep.arrivals);

  std::uint64_t updates = 0;
  for (const auto& r : stream) updates += r.kind == serve::RequestKind::kUpdate;

  ASSERT_EQ(rep.shard_admitted.size(), 4u);
  ASSERT_EQ(rep.shard_dropped.size(), 4u);
  std::uint64_t admitted = 0, dropped = 0, batches = 0;
  for (unsigned s = 0; s < 4; ++s) {
    admitted += rep.shard_admitted[s];
    dropped += rep.shard_dropped[s];
    batches += rep.shard_batches[s];
  }
  // Updates buffer for the epoch path, so they appear in the stream
  // totals but in no shard's admission tally.
  EXPECT_EQ(admitted + updates, rep.admitted);
  EXPECT_EQ(dropped, rep.dropped);
  EXPECT_EQ(batches, rep.batches);
}

// Seed matrix: a shard dies while cross-shard epochs are in flight. The
// all-or-nothing barrier must hold anyway — every answered response
// (device path, degraded CPU path, or a merge mixing both) matches one
// whole-epoch snapshot, for every (seed, lost shard) combination.
TEST(ShardedServer, LostShardDuringEpochsKeepsBarrierAtomic) {
  for (const std::uint64_t seed : {1u, 7u, 13u}) {
    const unsigned lost_shard = seed % 4;
    SCOPED_TRACE(testing::Message()
                 << "seed " << seed << ", losing shard " << lost_shard);
    ShardedFixture f(4);

    serve::OpenLoopSpec spec;
    spec.arrivals_per_second = 4e6;
    spec.count = 5000;
    spec.update_fraction = 0.25;
    spec.range_fraction = 0.20;
    spec.range_span = 512;  // straddling fan-outs bracket the outage
    spec.seed = seed;
    const auto stream = serve::make_open_loop(f.keys, spec);

    serve::ServeOptions cfg;
    cfg.batch.max_batch = 128;
    cfg.batch.max_wait = 80e-6;
    cfg.batch.queue_capacity = 1 << 14;
    cfg.batch.max_range_results = 12;
    cfg.epoch.max_buffered = 150;  // many epochs around the outage
    cfg.faults = fault::FaultPlan::parse(
        "lose@0.0004:shard=" + std::to_string(lost_shard) + ",repair=0.0004");

    ShardedServer server(f.index, cfg);
    const auto rep = server.run(stream);

    ASSERT_EQ(rep.faults.shards_lost, 1u);
    ASSERT_EQ(rep.faults.shards_restored, 1u);
    EXPECT_GE(rep.epochs, 8u);
    ASSERT_NO_FATAL_FAILURE(expect_epochs_by_count(stream, rep, cfg.epoch.max_buffered));
    ASSERT_EQ(rep.responses.size(), stream.size());
    // Fault shedding is exempt, answers are not.
    const auto snapshots = epoch_snapshots(f.keys, stream, rep);
    ASSERT_NO_FATAL_FAILURE(
        check_responses(stream, rep, snapshots, cfg.batch.max_range_results));

    // Updates routed at the fenced shard still landed: the index equals
    // the final snapshot after the outage.
    EXPECT_EQ(f.index.num_keys(), snapshots.back().size());
    expect_host_reads(f.index, snapshots.back());
  }
}

// A plan that leaves a shard without keys is refused where the shards
// are built, so every served shard has a device for the whole run
// (lazily creating devices mid-run would tear cross-shard reads).
TEST(ShardedServer, RejectsEmptyShards) {
  const auto keys = queries::make_tree_keys(1 << 10, 1);
  std::vector<btree::Entry> entries;
  for (Key k : keys) {
    if (k < (~Key{0} >> 2)) entries.push_back({k, btree::value_for_key(k)});
  }
  ASSERT_FALSE(entries.empty());
  // Equal-width over keys confined to the bottom quarter: upper shards
  // would hold nothing, so the index (and hence any server over it)
  // refuses the plan.
  EXPECT_THROW(ShardedIndex(entries, ShardPlan::equal_width(4), sharded_options()),
               ContractViolation);
  // The same keys under a plan cut from them populate every shard.
  std::vector<Key> kept;
  for (const auto& e : entries) kept.push_back(e.key);
  EXPECT_NO_THROW(ShardedIndex(entries, ShardPlan::sample_balanced(kept, 4),
                               sharded_options()));
}

}  // namespace
}  // namespace harmonia::shard
