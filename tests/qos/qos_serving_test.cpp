// System tests of the QoS front-end on the single-device serving path:
// per-tenant throttling at the admission edge, weighted-fair batch
// formation under saturation, overload eviction shedding the lowest
// class first, and the per-class report ledger reconciling with the
// aggregate counters on every run.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

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

qos::QosConfig three_class_qos() {
  qos::QosConfig q;
  q.enabled = true;
  q.classes[0] = {8.0, 1.0};
  q.classes[1] = {3.0, 2.0};
  q.classes[2] = {1.0, 4.0};
  return q;
}

/// Every identity the per-class ledger must satisfy against the
/// aggregate counters (check_invariants enforces the same set; asserting
/// them here keeps the failure local and readable).
void expect_class_ledger_reconciles(const ServerReport& rep) {
  std::uint64_t arrivals = 0, admitted = 0, dropped = 0, throttled = 0;
  std::uint64_t completed = 0, shed = 0, updates = 0;
  for (std::size_t c = 0; c < qos::kNumClasses; ++c) {
    arrivals += rep.class_arrivals[c];
    admitted += rep.class_admitted[c];
    dropped += rep.class_dropped[c];
    throttled += rep.class_throttled[c];
    completed += rep.class_completed[c];
    shed += rep.class_shed[c];
    updates += rep.class_update_requests[c];
    EXPECT_EQ(rep.class_arrivals[c],
              rep.class_admitted[c] + rep.class_dropped[c])
        << "class " << c;
    EXPECT_EQ(rep.class_admitted[c], rep.class_completed[c] +
                                         rep.class_shed[c] +
                                         rep.class_update_requests[c])
        << "class " << c;
    EXPECT_LE(rep.class_throttled[c], rep.class_dropped[c]) << "class " << c;
    EXPECT_EQ(rep.class_latency[c].count(), rep.class_completed[c])
        << "class " << c;
  }
  EXPECT_EQ(arrivals, rep.arrivals);
  EXPECT_EQ(admitted, rep.admitted);
  EXPECT_EQ(dropped, rep.dropped);
  EXPECT_EQ(throttled, rep.throttled);
  EXPECT_EQ(completed, rep.completed);
  EXPECT_EQ(shed, rep.shed);
  EXPECT_EQ(updates, rep.update_requests);
  rep.check_invariants();
}

// Per-tenant token buckets at queue entry: an over-rate tenant is
// throttled (dropped before the queue), other tenants are untouched,
// and every throttle is tallied both per class and in aggregate.
TEST(QosServing, TokenBucketThrottlesPerTenant) {
  ServerFixture f;

  OpenLoopSpec spec;
  spec.arrivals_per_second = 2e6;
  spec.count = 6000;
  spec.tenants = 3;  // one per class, ~2100 arrivals each at ~0.7 Mq/s
  spec.seed = 3;
  const auto stream = make_open_loop(f.keys, spec);

  ServeOptions cfg;
  cfg.batch.max_batch = 256;
  cfg.batch.queue_capacity = 8192;
  cfg.qos = three_class_qos();
  cfg.qos.tenant_rate = 3e5;  // under each tenant's ~0.7 Mq/s share
  cfg.qos.tenant_burst = 16.0;

  shard::ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);

  EXPECT_GT(rep.throttled, 0u);
  // Throttles are drops, not sheds: the request never entered a queue.
  EXPECT_EQ(rep.shed, 0u);
  EXPECT_EQ(rep.dropped, rep.throttled);
  // Every class hosts one over-rate tenant here, so each gets throttled.
  for (std::size_t c = 0; c < qos::kNumClasses; ++c) {
    EXPECT_GT(rep.class_throttled[c], 0u) << "class " << c;
    EXPECT_EQ(rep.class_throttled[c], rep.class_dropped[c]) << "class " << c;
  }
  // Throttled requests were answered (dropped responses), not lost.
  EXPECT_EQ(rep.responses.size(), stream.size());
  expect_class_ledger_reconciles(rep);

  // The same stream without throttling admits everything.
  ServeOptions open = cfg;
  open.qos.tenant_rate = 0.0;
  ServerFixture f2;
  shard::ShardedServer server2(f2.index, open);
  const auto rep2 = server2.run(make_open_loop(f2.keys, spec));
  EXPECT_EQ(rep2.throttled, 0u);
  EXPECT_EQ(rep2.dropped, 0u);
  expect_class_ledger_reconciles(rep2);
}

// Overload eviction: when the admission budget fills, the newest request
// of the lowest queued class is shed first — bronze absorbs the entire
// overload while gold completes everything, undropped.
TEST(QosServing, OverloadShedsLowestClassFirst) {
  ServerFixture f;

  OpenLoopSpec spec;
  spec.arrivals_per_second = 20e6;  // far past a single device's capacity
  spec.count = 9000;
  spec.tenants = 3;
  spec.seed = 11;
  const auto stream = make_open_loop(f.keys, spec);

  ServeOptions cfg;
  cfg.batch.max_batch = 256;
  cfg.batch.max_wait = 100e-6;
  cfg.batch.queue_capacity = 512;  // small budget: evictions must happen
  cfg.qos = three_class_qos();

  shard::ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);

  ASSERT_GT(rep.shed + rep.dropped, 0u) << "not an overload";
  // Gold is untouchable while lower classes remain to evict.
  EXPECT_EQ(rep.class_shed[0], 0u);
  EXPECT_EQ(rep.class_dropped[0], 0u);
  EXPECT_EQ(rep.class_completed[0], rep.class_arrivals[0]);
  // Bronze pays: it sheds strictly more than silver.
  EXPECT_GT(rep.class_shed[2], 0u);
  EXPECT_GE(rep.class_shed[2], rep.class_shed[1]);
  EXPECT_EQ(rep.responses.size(), stream.size());
  expect_class_ledger_reconciles(rep);
}

// Weighted-fair formation under saturation: gold's stretched-deadline
// advantage and 8x dispatch weight must show up as a strictly better
// latency profile than bronze on the same saturated stream.
TEST(QosServing, WeightedFairFavoursGoldUnderSaturation) {
  ServerFixture f;

  OpenLoopSpec spec;
  spec.arrivals_per_second = 6e6;
  spec.count = 9000;
  spec.tenants = 3;
  spec.seed = 17;
  const auto stream = make_open_loop(f.keys, spec);

  ServeOptions cfg;
  cfg.batch.max_batch = 256;
  cfg.batch.max_wait = 100e-6;
  cfg.batch.queue_capacity = 4096;
  cfg.qos = three_class_qos();

  shard::ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);

  ASSERT_GT(rep.class_latency[0].count(), 100u);
  ASSERT_GT(rep.class_latency[2].count(), 100u);
  EXPECT_LT(rep.class_latency[0].percentile(50),
            rep.class_latency[2].percentile(50));
  EXPECT_LT(rep.class_latency[0].percentile(99),
            rep.class_latency[2].percentile(99));
  expect_class_ledger_reconciles(rep);
}

// A disabled QoS config on a tenanted stream still keeps the per-class
// ledger: arrivals land in their class buckets and reconcile, while the
// scheduler itself stays single-lane legacy (no evictions, no stretch).
TEST(QosServing, DisabledQosStillKeepsClassLedger) {
  ServerFixture f;

  OpenLoopSpec spec;
  spec.arrivals_per_second = 2e6;
  spec.count = 4000;
  spec.update_fraction = 0.1;
  spec.tenants = 6;
  spec.seed = 23;
  const auto stream = make_open_loop(f.keys, spec);

  ServeOptions cfg;
  cfg.batch.max_batch = 256;
  cfg.batch.queue_capacity = 8192;
  cfg.epoch.max_buffered = 200;
  ASSERT_FALSE(cfg.qos.enabled);

  shard::ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);
  EXPECT_GT(rep.class_arrivals[1], 0u);  // tenants really spanned classes
  EXPECT_GT(rep.class_arrivals[2], 0u);
  EXPECT_GT(rep.update_requests, 0u);  // update responses keep their class
  expect_class_ledger_reconciles(rep);
}

// Deterministic replay with the full QoS surface on: lanes, buckets,
// evictions, and per-class tallies all replay bit-identically.
TEST(QosServing, DeterministicReplayWithQosOn) {
  OpenLoopSpec spec;
  spec.arrivals_per_second = 12e6;
  spec.count = 5000;
  spec.scan_fraction = 0.1;
  spec.tenants = 5;
  spec.seed = 29;

  auto run_once = [&] {
    ServerFixture f;
    ServeOptions cfg;
    cfg.batch.max_batch = 128;
    cfg.batch.queue_capacity = 512;
    cfg.qos = three_class_qos();
    cfg.qos.tenant_rate = 2e6;
    shard::ShardedServer server(f.index, cfg);
    return server.run(make_open_loop(f.keys, spec));
  };

  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.responses.size(), b.responses.size());
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    EXPECT_EQ(a.responses[i].id, b.responses[i].id);
    EXPECT_EQ(a.responses[i].dropped, b.responses[i].dropped);
    EXPECT_DOUBLE_EQ(a.responses[i].completion, b.responses[i].completion);
  }
  EXPECT_EQ(a.throttled, b.throttled);
  for (std::size_t c = 0; c < qos::kNumClasses; ++c) {
    EXPECT_EQ(a.class_shed[c], b.class_shed[c]);
    EXPECT_EQ(a.class_completed[c], b.class_completed[c]);
  }
  EXPECT_GT(a.shed + a.dropped, 0u);  // the replayed run really evicted
  expect_class_ledger_reconciles(a);
}

}  // namespace
}  // namespace harmonia::serve
