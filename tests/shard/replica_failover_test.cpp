// Replica groups through the sharded serving path: losing one replica of
// a K-way group must keep the shard serving from the survivors with zero
// CPU-oracle degraded queries, the rejoining replica must catch up on the
// epochs it missed (the same price with or without persistence), a loss
// on the *last* healthy replica must
// fall back to the whole-shard fence, and every replicated run must stay
// oracle-exact and deterministic. Extends tests/fault/fault_shard_test.cpp.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "persist/durability.hpp"
#include "queries/workload.hpp"
#include "serve/workload.hpp"
#include "serving_oracle.hpp"
#include "shard/sharded_server.hpp"
#include "test_dir.hpp"

namespace harmonia::shard {
namespace {

using namespace testing_support;

serve::ServeOptions replicated_config(unsigned replicas) {
  serve::ServeOptions cfg;
  cfg.batch.max_batch = 128;
  cfg.batch.max_wait = 80e-6;
  cfg.batch.queue_capacity = 1 << 14;
  cfg.batch.max_range_results = 16;
  cfg.epoch.max_buffered = 300;
  cfg.replicas = replicas;
  return cfg;
}

// The headline contract: one replica of a K=3 group dies mid-stream and
// the shard keeps serving from the survivors — no fence, no CPU-oracle
// degraded queries, no fault shedding — then the replica rejoins by
// replaying the epochs it missed.
TEST(ReplicaFailover, LostReplicaServesFromSurvivorsZeroDegraded) {
  ShardedFixture f(4);

  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 4e6;
  spec.count = 6000;
  spec.update_fraction = 0.20;
  spec.range_fraction = 0.10;
  spec.range_span = 64;
  spec.seed = 13;
  const auto stream = serve::make_open_loop(f.keys, spec);

  auto cfg = replicated_config(3);
  cfg.faults =
      fault::FaultPlan::parse("replica-lost@0.0004:shard=1,replica=0,repair=0.0006");

  ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);

  // The loss was absorbed inside the group: outcome tallies say replica,
  // never whole-shard, and the degraded CPU path never fired.
  EXPECT_EQ(rep.faults.replicas_lost, 1u);
  EXPECT_EQ(rep.faults.replicas_rejoined, 1u);
  EXPECT_EQ(rep.faults.shards_lost, 0u);
  EXPECT_EQ(rep.faults.degraded_points, 0u);
  EXPECT_EQ(rep.faults.degraded_ranges, 0u);
  EXPECT_EQ(rep.faults.degraded_shed, 0u);
  EXPECT_EQ(rep.shed, 0u);
  EXPECT_EQ(rep.faults.fenced_seconds, 0.0);

  // Per-replica dispatch accounting holds: each shard's K slots sum to
  // its batch count, and the whole grid sums to the global total.
  ASSERT_EQ(rep.replica_batches.size(), std::size_t{4} * 3);
  std::uint64_t grid = 0;
  for (unsigned s = 0; s < 4; ++s) {
    std::uint64_t group = 0;
    for (unsigned r = 0; r < 3; ++r) group += rep.replica_batches[s * 3 + r];
    EXPECT_EQ(group, rep.shard_batches[s]) << "shard " << s;
    grid += group;
  }
  EXPECT_EQ(grid, rep.batches);

  check_quiesce_responses(f.keys, stream, rep, cfg);
}

// The loss counters book by outcome in the report and the metrics alike.
void expect_loss_metrics_match(obs::MetricsRegistry& metrics,
                               const fault::FaultReport& faults) {
  EXPECT_EQ(metrics.counter("fault_shards_lost_total").value(), faults.shards_lost);
  EXPECT_EQ(metrics.counter("fault_replicas_lost_total").value(),
            faults.replicas_lost);
}

// A whole-shard `lose` event aimed at a replicated group is absorbed the
// same way: one slot goes down, the survivors serve, and the loss books
// as a replica loss (its outcome), not a shard loss (its kind).
TEST(ReplicaFailover, WholeShardLoseAbsorbedByGroup) {
  ShardedFixture f(4);

  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 4e6;
  spec.count = 5000;
  spec.update_fraction = 0.15;
  spec.seed = 29;
  const auto stream = serve::make_open_loop(f.keys, spec);

  auto cfg = replicated_config(2);
  cfg.faults = fault::FaultPlan::parse("lose@0.0004:shard=2,repair=0.0005");
  obs::MetricsRegistry metrics;
  cfg.obs = {&metrics, nullptr};

  ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);

  EXPECT_EQ(rep.faults.shards_lost, 0u);
  EXPECT_EQ(rep.faults.replicas_lost, 1u);
  expect_loss_metrics_match(metrics, rep.faults);
  EXPECT_EQ(rep.faults.replicas_rejoined, 1u);
  EXPECT_EQ(rep.faults.degraded_points, 0u);
  EXPECT_EQ(rep.shed, 0u);
  check_quiesce_responses(f.keys, stream, rep, cfg);
}

// Losing the *last* healthy replica is a whole-shard outage: the second
// replica-lost event lands while the first slot is still down, so the
// shard fences and serves degraded until the timed restore — and the
// outcome tallies say one absorbed replica loss plus one shard loss.
TEST(ReplicaFailover, LastHealthyReplicaLossFencesShard) {
  ShardedFixture f(4);

  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 4e6;
  spec.count = 6000;
  spec.update_fraction = 0.15;
  spec.seed = 31;
  const auto stream = serve::make_open_loop(f.keys, spec);

  auto cfg = replicated_config(2);
  cfg.faults = fault::FaultPlan::parse(
      "replica-lost@0.0003:shard=1,replica=0,repair=0.0009;"
      "replica-lost@0.0005:shard=1,replica=1,repair=0.0004");
  obs::MetricsRegistry metrics;
  cfg.obs = {&metrics, nullptr};

  ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);

  EXPECT_EQ(rep.faults.replicas_lost, 1u);
  EXPECT_EQ(rep.faults.shards_lost, 1u);
  expect_loss_metrics_match(metrics, rep.faults);
  EXPECT_EQ(rep.faults.shards_restored, 1u);
  EXPECT_GT(rep.faults.degraded_points, 0u);
  EXPECT_GT(rep.faults.fenced_seconds, 0.0);
  check_quiesce_responses(f.keys, stream, rep, cfg);
}

// Log-shipped catch-up: epochs swap while one replica is down, so the
// rejoin must replay those epochs' ops (catchup_ops > 0) and book the
// modeled replay + log-transfer time before the slot serves again.
TEST(ReplicaFailover, RejoinReplaysUpdateLogTail) {
  ShardedFixture f(2);

  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 4e6;
  spec.count = 12000;
  spec.update_fraction = 0.30;
  spec.seed = 37;
  const auto stream = serve::make_open_loop(f.keys, spec);

  auto cfg = replicated_config(3);
  cfg.epoch.max_buffered = 200;  // several epochs inside the outage window
  cfg.faults =
      fault::FaultPlan::parse("replica-lost@0.0003:shard=0,replica=1,repair=0.002");

  ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);

  EXPECT_EQ(rep.faults.replicas_lost, 1u);
  EXPECT_EQ(rep.faults.replicas_rejoined, 1u);
  EXPECT_GT(rep.faults.catchup_ops, 0u);
  EXPECT_GT(rep.faults.catchup_seconds, 0.0);
  EXPECT_EQ(rep.faults.degraded_points, 0u);
  check_quiesce_responses(f.keys, stream, rep, cfg);
}

// Replication is invisible to results: a fault-free K=3 run answers every
// request with exactly the same values as the unreplicated K=1 run over
// the same stream (extra replicas only add dispatch slots, never change
// what any query sees).
TEST(ReplicaFailover, ReplicationDoesNotChangeAnswers) {
  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 4e6;
  spec.count = 5000;
  spec.update_fraction = 0.20;
  spec.range_fraction = 0.05;
  spec.seed = 41;

  auto run_with = [&](unsigned replicas) {
    ShardedFixture f(4);
    const auto stream = serve::make_open_loop(f.keys, spec);
    ShardedServer server(f.index, replicated_config(replicas));
    return server.run(stream);
  };

  const auto base = run_with(1);
  const auto replicated = run_with(3);

  // Extra replicas can reorder completions (overlapping sub-batches), so
  // match responses by request id, not emission order.
  ASSERT_EQ(base.responses.size(), replicated.responses.size());
  std::map<std::uint64_t, const serve::Response*> by_id;
  for (const auto& r : replicated.responses) by_id[r.id] = &r;
  for (const auto& a : base.responses) {
    const auto it = by_id.find(a.id);
    ASSERT_NE(it, by_id.end());
    const auto& b = *it->second;
    EXPECT_EQ(a.value, b.value) << "request " << a.id;
    EXPECT_EQ(a.range_values, b.range_values) << "request " << a.id;
    EXPECT_EQ(a.dropped, b.dropped) << "request " << a.id;
  }
  EXPECT_EQ(base.completed, replicated.completed);
}

// Determinism gate: the same replicated run with the same fault plan
// replays to identical responses and identical fault tallies.
TEST(ReplicaFailover, ReplicatedFailoverReplaysDeterministically) {
  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 4e6;
  spec.count = 6000;
  spec.update_fraction = 0.20;
  spec.seed = 43;

  auto run_once = [&] {
    ShardedFixture f(4);
    const auto stream = serve::make_open_loop(f.keys, spec);
    auto cfg = replicated_config(3);
    cfg.faults = fault::FaultPlan::parse(
        "replica-lost@0.0004:shard=1,replica=2,repair=0.0006;"
        "slow@0.0002:shard=3,factor=4,duration=0.0003");
    ShardedServer server(f.index, cfg);
    return server.run(stream);
  };

  const auto a = run_once();
  const auto b = run_once();

  ASSERT_EQ(a.responses.size(), b.responses.size());
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    EXPECT_EQ(a.responses[i].value, b.responses[i].value);
    EXPECT_DOUBLE_EQ(a.responses[i].completion, b.responses[i].completion);
  }
  EXPECT_EQ(a.faults.replicas_lost, b.faults.replicas_lost);
  EXPECT_EQ(a.faults.replicas_rejoined, b.faults.replicas_rejoined);
  EXPECT_EQ(a.faults.catchup_ops, b.faults.catchup_ops);
  EXPECT_DOUBLE_EQ(a.faults.catchup_seconds, b.faults.catchup_seconds);
  EXPECT_EQ(a.replica_batches, b.replica_batches);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

// Catch-up is priced from the commit ledger, so persistence cannot move
// it. The lost slot rejoins while an overlap-mode epoch is staged but not
// yet swapped; both runs charge that epoch the same way.
TEST(ReplicaFailover, CatchupDoesNotDependOnPersistence) {
  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 4e6;
  spec.count = 6000;
  spec.update_fraction = 0.30;
  spec.seed = 37;

  const auto dir = testing_support::unique_test_dir();
  std::filesystem::remove_all(dir);
  auto run_with = [&](bool persist) {
    ShardedFixture f(2);
    const auto stream = serve::make_open_loop(f.keys, spec);
    auto cfg = replicated_config(2);
    cfg.epoch.mode = serve::EpochMode::kOverlap;
    cfg.faults = fault::FaultPlan::parse(
        "replica-lost@0.0003:shard=0,replica=1,repair=0.0005");
    std::unique_ptr<persist::DurabilityDomain> domain;
    if (persist) {
      cfg.persist.dir = dir.string();
      domain = std::make_unique<persist::DurabilityDomain>(cfg.persist, 2);
      cfg.durability = domain.get();
    }
    ShardedServer server(f.index, cfg);
    return server.run(stream);
  };
  const auto volatile_run = run_with(false);
  const auto persisted = run_with(true);
  std::filesystem::remove_all(dir);

  EXPECT_EQ(volatile_run.log_batches, 0u);
  EXPECT_GT(persisted.log_batches, 0u);
  EXPECT_EQ(volatile_run.faults.replicas_rejoined, 1u);
  EXPECT_GT(volatile_run.faults.catchup_ops, 0u);
  EXPECT_EQ(persisted.faults.catchup_ops, volatile_run.faults.catchup_ops);
  EXPECT_EQ(persisted.faults, volatile_run.faults);
}

// A slot lost before an overlap epoch's staged upload and back before
// that epoch's swap missed the upload: its catch-up replays the ledger's
// epochs after the one it last applied plus the staged epoch's ops. The
// expected count is rebuilt from the trace: the build annotations give
// each epoch's update count, the stream's updates in arrival order give
// the shard-0 share of each epoch, and the shard-0 swaps before the loss
// give the slot's last applied epoch.
TEST(ReplicaFailover, RejoinInsideStagedWindowReplaysTheStagedEpoch) {
  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 4e6;
  spec.count = 6000;
  spec.update_fraction = 0.30;
  spec.seed = 37;

  ShardedFixture f(2);
  const auto stream = serve::make_open_loop(f.keys, spec);
  auto cfg = replicated_config(2);
  cfg.epoch.mode = serve::EpochMode::kOverlap;
  cfg.faults =
      fault::FaultPlan::parse("replica-lost@0.0003:shard=0,replica=1,repair=0.0005");
  obs::TraceRecorder trace;
  cfg.obs.trace = &trace;
  ShardedServer server(f.index, cfg);
  const auto report = server.run(stream);
  ASSERT_EQ(report.faults.replicas_rejoined, 1u);

  const auto number_after = [](const std::string& note, const std::string& tag) {
    const std::size_t at = note.find(tag);
    return at == std::string::npos ? ~std::uint64_t{0}
                                   : std::stoull(note.substr(at + tag.size()));
  };
  std::vector<std::uint64_t> epoch_updates{0};  // [epoch] -> fleet op count
  double lost_at = -1.0;
  double rejoined_at = -1.0;
  std::uint64_t lost_epoch = 0;  // shard 0's epoch when the slot was lost
  std::uint64_t shard0_epoch = 0;
  for (const obs::TraceEvent& e : trace.events()) {
    if (e.stage != obs::Stage::kAnnotation) continue;
    if (e.note.starts_with("epoch build start")) {
      ASSERT_EQ(number_after(e.note, "epoch="), epoch_updates.size());
      epoch_updates.push_back(number_after(e.note, "ops="));
    } else if (e.shard == 0 && e.note.starts_with("epoch swap")) {
      shard0_epoch = number_after(e.note, "epoch=");
    } else if (e.shard == 0 && e.note.starts_with("replica failover slot=1")) {
      lost_at = e.at;
      lost_epoch = shard0_epoch;
    } else if (e.shard == 0 && e.note.starts_with("replica rejoined slot=1")) {
      rejoined_at = e.at;
      // The slot rejoins inside a staged window: shard 0 has not swapped
      // the last epoch whose build started.
      ASSERT_EQ(shard0_epoch + 1, epoch_updates.size() - 1);
      break;
    }
  }
  ASSERT_GE(lost_at, 0.0);
  ASSERT_GT(rejoined_at, lost_at);

  // Shard 0's share of each epoch: epochs take the buffered updates in
  // arrival order.
  std::vector<std::uint64_t> shard0_ops(epoch_updates.size(), 0);
  std::size_t epoch = 1;
  std::uint64_t taken = 0;
  for (const serve::Request& r : stream) {
    if (r.kind != serve::RequestKind::kUpdate) continue;
    while (epoch < epoch_updates.size() && taken == epoch_updates[epoch]) {
      ++epoch;
      taken = 0;
    }
    if (epoch == epoch_updates.size()) break;
    ++taken;
    if (f.index.plan().shard_of(r.key) == 0) ++shard0_ops[epoch];
  }
  const std::uint64_t staged = shard0_ops.back();
  std::uint64_t ledger = 0;
  for (std::size_t e = lost_epoch + 1; e + 1 < shard0_ops.size(); ++e) ledger += shard0_ops[e];
  EXPECT_GT(ledger, 0u);
  EXPECT_GT(staged, 0u);
  EXPECT_EQ(report.faults.catchup_ops, ledger + staged);
}

}  // namespace
}  // namespace harmonia::shard
