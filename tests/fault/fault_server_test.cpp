// Faults through the single-device serving path: an armed-but-idle plan
// must not perturb a single bit, slowdowns stretch the clock without
// touching answers, retries absorb transient dispatch failures (and shed
// once the budget is gone), and resync corruption is caught by the CRC
// audit and repaired before any response can read it.
#include <gtest/gtest.h>

#include <map>

#include "common/expect.hpp"
#include "fault/checksum.hpp"
#include "queries/workload.hpp"
#include "serve/workload.hpp"
#include "shard/sharded_server.hpp"

namespace harmonia::serve {
namespace {

gpusim::DeviceSpec test_spec() {
  auto spec = gpusim::titan_v();
  spec.num_sms = 8;
  spec.global_mem_bytes = 512 << 20;
  return spec;
}

struct ServerFixture {
  explicit ServerFixture(std::uint64_t tree_keys = 1 << 12, unsigned fanout = 16)
      : keys(queries::make_tree_keys(tree_keys, 1)), index([&] {
          std::vector<btree::Entry> entries;
          for (Key k : keys) entries.push_back({k, btree::value_for_key(k)});
          return HarmoniaIndex::build(dev, entries, {.fanout = fanout});
        }()) {}

  gpusim::Device dev{test_spec()};
  std::vector<Key> keys;
  HarmoniaIndex index;
};

std::vector<Request> query_stream(const ServerFixture& f, std::uint64_t count,
                                  std::uint64_t seed) {
  OpenLoopSpec spec;
  spec.arrivals_per_second = 4e6;
  spec.count = count;
  spec.seed = seed;
  return make_open_loop(f.keys, spec);
}

ServeOptions base_config() {
  ServeOptions cfg;
  cfg.batch.max_batch = 128;
  cfg.batch.max_wait = 80e-6;
  cfg.batch.queue_capacity = 8192;
  return cfg;
}

/// Every non-dropped point response must carry the built tree's value.
void expect_points_match_tree(const ServerReport& rep,
                              std::span<const Request> stream,
                              const HarmoniaIndex& index) {
  for (const auto& resp : rep.responses) {
    if (resp.dropped || resp.kind != RequestKind::kPoint) continue;
    const auto want = index.search_host(stream[resp.id].key).value_or(kNotFound);
    ASSERT_EQ(resp.value, want) << "request " << resp.id;
  }
}

// An armed injector whose events all lie past the end of the stream must
// take the exact pre-fault arithmetic path: factor 1.0 contributes +0.0.
TEST(FaultServer, ArmedButIdlePlanIsBitIdentical) {
  auto run_with = [](const std::string& spec) {
    ServerFixture f;
    const auto stream = query_stream(f, 3000, 42);
    ServeOptions cfg = base_config();
    if (!spec.empty()) cfg.faults = fault::FaultPlan::parse(spec);
    shard::ShardedServer server(f.index, cfg);
    return server.run(stream);
  };

  const auto clean = run_with("");
  const auto armed = run_with(
      "slow@100:shard=0,factor=8,duration=1;"
      "fail@100:shard=0,count=2;"
      "corrupt@100:shard=0,bytes=4");

  ASSERT_EQ(clean.responses.size(), armed.responses.size());
  for (std::size_t i = 0; i < clean.responses.size(); ++i) {
    EXPECT_EQ(clean.responses[i].id, armed.responses[i].id);
    EXPECT_DOUBLE_EQ(clean.responses[i].completion,
                     armed.responses[i].completion);
    EXPECT_EQ(clean.responses[i].value, armed.responses[i].value);
  }
  EXPECT_DOUBLE_EQ(clean.makespan, armed.makespan);
  EXPECT_EQ(armed.faults, fault::FaultReport{});  // nothing ever fired
}

TEST(FaultServer, SlowdownStretchesTheClockNotTheAnswers) {
  auto run_with = [](const std::string& spec) {
    ServerFixture f;
    const auto stream = query_stream(f, 3000, 42);
    ServeOptions cfg = base_config();
    if (!spec.empty()) cfg.faults = fault::FaultPlan::parse(spec);
    shard::ShardedServer server(f.index, cfg);
    auto rep = server.run(stream);
    expect_points_match_tree(rep, stream, f.index);
    return rep;
  };

  const auto clean = run_with("");
  const auto slowed = run_with("slow@0:shard=0,factor=8,duration=10");

  EXPECT_EQ(slowed.faults.slowdown_windows, 1u);
  EXPECT_GT(slowed.makespan, clean.makespan);
  EXPECT_GT(slowed.latency.mean(), clean.latency.mean());
  EXPECT_EQ(slowed.shed, 0u);
  EXPECT_EQ(slowed.dropped, clean.dropped);
}

TEST(FaultServer, TransientFailuresAreRetriedWithinBudget) {
  ServerFixture f;
  const auto stream = query_stream(f, 2000, 7);
  ServeOptions cfg = base_config();
  cfg.faults = fault::FaultPlan::parse("fail@0:shard=0,count=2");
  shard::ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);

  EXPECT_EQ(rep.faults.dispatch_failures, 2u);
  EXPECT_EQ(rep.faults.retries, 2u);  // each failure absorbed by one retry
  EXPECT_EQ(rep.faults.retry_shed_batches, 0u);
  EXPECT_GT(rep.faults.backoff_seconds, 0.0);
  EXPECT_EQ(rep.shed, 0u);
  EXPECT_EQ(rep.responses.size(), stream.size());
  expect_points_match_tree(rep, stream, f.index);
}

TEST(FaultServer, ExhaustedRetryBudgetShedsTheBatchVisibly) {
  ServerFixture f;
  const auto stream = query_stream(f, 2000, 7);
  ServeOptions cfg = base_config();
  // More consecutive failures than any retry budget: some batch dies.
  cfg.faults = fault::FaultPlan::parse("fail@0:shard=0,count=64");
  cfg.mitigation.retry.max_attempts = 3;
  shard::ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);

  EXPECT_GT(rep.faults.retry_shed_batches, 0u);
  EXPECT_GT(rep.shed, 0u);
  EXPECT_EQ(rep.shed, rep.faults.retry_shed_requests);
  // Shedding is not queue rejection: admission accounting still balances.
  EXPECT_EQ(rep.admitted + rep.dropped, rep.arrivals);
  EXPECT_EQ(rep.responses.size(), stream.size());
  std::uint64_t dropped_responses = 0;
  for (const auto& resp : rep.responses) dropped_responses += resp.dropped;
  EXPECT_EQ(dropped_responses, rep.shed + rep.dropped);
  expect_points_match_tree(rep, stream, f.index);  // survivors stay correct
}

// Corruption lands on the device image during an epoch resync; the CRC
// audit must flag it and the re-image must repair it before queries of the
// next epoch read the image — so every answer still matches the oracle.
TEST(FaultServer, ResyncCorruptionIsDetectedAndRepaired) {
  ServerFixture f;
  OpenLoopSpec spec;
  spec.arrivals_per_second = 4e6;
  spec.count = 4000;
  spec.update_fraction = 0.25;
  spec.seed = 9;
  const auto stream = make_open_loop(f.keys, spec);

  ServeOptions cfg = base_config();
  cfg.epoch.max_buffered = 300;
  cfg.faults = fault::FaultPlan::parse("corrupt@0:shard=0,bytes=16");

  // Snapshot oracle per epoch, exactly as the updater batches the stream.
  std::vector<std::map<Key, Value>> snapshots;
  {
    std::map<Key, Value> oracle;
    for (Key k : f.keys) oracle[k] = btree::value_for_key(k);
    snapshots.push_back(oracle);
    std::size_t buffered = 0;
    for (const Request& r : stream) {
      if (r.kind != RequestKind::kUpdate) continue;
      switch (r.op) {
        case queries::OpKind::kUpdate:
          if (auto it = oracle.find(r.key); it != oracle.end())
            it->second = r.value;
          break;
        case queries::OpKind::kInsert:
          oracle[r.key] = r.value;
          break;
        case queries::OpKind::kDelete:
          oracle.erase(r.key);
          break;
      }
      if (++buffered == cfg.epoch.max_buffered) {
        snapshots.push_back(oracle);
        buffered = 0;
      }
    }
    if (buffered > 0) snapshots.push_back(oracle);
  }

  shard::ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);

  EXPECT_EQ(rep.faults.corruptions, 1u);
  EXPECT_GE(rep.faults.audits, 1u);
  EXPECT_EQ(rep.faults.checksum_mismatches, 1u);
  EXPECT_GE(rep.faults.reimages, 1u);
  EXPECT_GT(rep.faults.reimage_seconds, 0.0);
  EXPECT_TRUE(fault::verify_image(f.index)) << "image left damaged after run";

  ASSERT_EQ(rep.dropped, 0u);
  ASSERT_EQ(rep.responses.size(), stream.size());
  for (const auto& resp : rep.responses) {
    if (resp.kind != RequestKind::kPoint) continue;
    ASSERT_LT(resp.epoch, snapshots.size());
    const auto& oracle = snapshots[resp.epoch];
    const auto it = oracle.find(stream[resp.id].key);
    const Value want = it != oracle.end() ? it->second : kNotFound;
    ASSERT_EQ(resp.value, want) << "request " << resp.id;
  }
}

TEST(FaultServer, RejectsShardLostOnSingleDevice) {
  ServerFixture f;
  ServeOptions cfg = base_config();
  cfg.faults = fault::FaultPlan::parse("lose@0:shard=0,repair=0.001");
  EXPECT_THROW(shard::ShardedServer(f.index, cfg), ContractViolation);
}

}  // namespace
}  // namespace harmonia::serve
