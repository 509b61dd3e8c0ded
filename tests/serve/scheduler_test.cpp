// Unit tests for the serving building blocks: bounded admission queue,
// deadline/size triggers, dispatch timing, and the epoch updater.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "queries/workload.hpp"
#include "serve/batch_scheduler.hpp"
#include "serve/epoch_updater.hpp"

namespace harmonia::serve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

gpusim::DeviceSpec test_spec() {
  auto spec = gpusim::titan_v();
  spec.num_sms = 8;
  spec.global_mem_bytes = 512 << 20;
  return spec;
}

struct ServeFixture {
  gpusim::Device dev{test_spec()};
  std::vector<Key> keys = queries::make_tree_keys(1 << 13, 1);
  HarmoniaIndex index = [&] {
    std::vector<btree::Entry> entries;
    for (Key k : keys) entries.push_back({k, btree::value_for_key(k)});
    return HarmoniaIndex::build(dev, entries, {.fanout = 16});
  }();
  TransferModel link;
};

Request point_at(std::uint64_t id, double t, Key key) {
  Request r;
  r.id = id;
  r.kind = RequestKind::kPoint;
  r.arrival = t;
  r.key = key;
  return r;
}

TEST(RequestQueue, BackpressureRejectsAtCapacity) {
  RequestQueue q(3);
  EXPECT_TRUE(q.try_push(point_at(0, 0.0, 1)));
  EXPECT_TRUE(q.try_push(point_at(1, 1.0, 2)));
  EXPECT_TRUE(q.try_push(point_at(2, 2.0, 3)));
  EXPECT_FALSE(q.try_push(point_at(3, 3.0, 4)));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q.oldest_arrival(), 0.0);
  EXPECT_EQ(q.pop().id, 0u);  // FIFO
  EXPECT_TRUE(q.try_push(point_at(4, 4.0, 5)));  // capacity freed
}

TEST(BatchScheduler, DeadlineFollowsOldestRequest) {
  ServeFixture f;
  BatchConfig cfg;
  cfg.max_batch = 8;
  cfg.max_wait = 100e-6;
  cfg.queue_capacity = 64;
  BatchScheduler s(f.index, f.link, cfg);

  EXPECT_EQ(s.next_deadline(), kInf);
  ASSERT_TRUE(s.admit(point_at(0, 3e-6, f.keys[0])));
  ASSERT_TRUE(s.admit(point_at(1, 9e-6, f.keys[1])));
  EXPECT_DOUBLE_EQ(s.next_deadline(), 3e-6 + 100e-6);
  EXPECT_FALSE(s.size_ready());

  for (std::uint64_t i = 2; i < 8; ++i) {
    ASSERT_TRUE(s.admit(point_at(i, 10e-6, f.keys[i])));
  }
  EXPECT_TRUE(s.size_ready());  // reached max_batch
}

TEST(BatchScheduler, DispatchMatchesDirectSearchBitIdentical) {
  ServeFixture f;
  BatchConfig cfg;
  cfg.max_batch = 64;
  BatchScheduler s(f.index, f.link, cfg);

  const auto targets = queries::make_queries(f.keys, 64, queries::Distribution::kUniform, 9);
  for (std::uint64_t i = 0; i < targets.size(); ++i) {
    ASSERT_TRUE(s.admit(point_at(i, 1e-6 * static_cast<double>(i), targets[i])));
  }
  ASSERT_TRUE(s.size_ready());
  const auto d = s.dispatch_ready(64e-6, 0.0, 0);
  ASSERT_EQ(d.batch_size, 64u);
  ASSERT_EQ(d.responses.size(), 64u);

  f.dev.flush_caches();
  const auto direct = f.index.search(targets, cfg.pipeline.query_options);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(d.responses[i].value, direct.values[i]) << "query " << i;
    EXPECT_EQ(d.responses[i].id, i);
  }
  EXPECT_TRUE(s.empty());
}

TEST(BatchScheduler, DispatchWaitsForBusyDevice) {
  ServeFixture f;
  BatchConfig cfg;
  cfg.max_batch = 4;
  BatchScheduler s(f.index, f.link, cfg);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(s.admit(point_at(i, 0.0, f.keys[i])));
  }
  const double busy_until = 5e-3;
  const auto d = s.dispatch_ready(1e-6, busy_until, 2);
  EXPECT_DOUBLE_EQ(d.close, 1e-6);
  EXPECT_DOUBLE_EQ(d.start, busy_until);  // device was the constraint
  EXPECT_GT(d.finish, d.start);
  for (const auto& r : d.responses) {
    EXPECT_EQ(r.epoch, 2u);
    EXPECT_DOUBLE_EQ(r.dispatch, busy_until);
    EXPECT_DOUBLE_EQ(r.completion, d.finish);
    EXPECT_GE(r.queue_delay(), busy_until);
  }
}

TEST(BatchScheduler, RangeLaneMatchesHostOracle) {
  ServeFixture f;
  BatchConfig cfg;
  cfg.max_batch = 8;
  cfg.max_range_results = 16;
  BatchScheduler s(f.index, f.link, cfg);

  std::vector<std::pair<Key, Key>> ranges;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const std::size_t at = i * 700;
    Request r;
    r.id = i;
    r.kind = RequestKind::kRange;
    r.arrival = 1e-6 * static_cast<double>(i);
    r.key = f.keys[at];
    r.hi = f.keys[at + 10];
    ranges.emplace_back(r.key, r.hi);
    ASSERT_TRUE(s.admit(r));
  }
  ASSERT_TRUE(s.size_ready());
  const auto d = s.dispatch_ready(1e-5, 0.0, 0);
  ASSERT_EQ(d.responses.size(), 8u);
  EXPECT_EQ(d.kind, RequestKind::kRange);
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    const auto want = f.index.range_host(ranges[i].first, ranges[i].second, 16);
    ASSERT_EQ(d.responses[i].range_values.size(), want.size()) << "range " << i;
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(d.responses[i].range_values[j], want[j].value);
    }
  }
}

TEST(BatchScheduler, ScanLaneMatchesHostOracle) {
  ServeFixture f;
  BatchConfig cfg;
  cfg.max_batch = 8;
  cfg.max_range_results = 24;
  BatchScheduler s(f.index, f.link, cfg);

  // Mixed caps, including 0 (clamps up to 1) and 500 (clamps down to the
  // max_range_results budget); lo alternates exact keys and gaps.
  const std::uint32_t asked[] = {0, 1, 5, 24, 500, 16, 3, 100};
  std::vector<Key> los;
  for (std::uint64_t i = 0; i < 8; ++i) {
    Request r;
    r.id = i;
    r.kind = RequestKind::kScan;
    r.arrival = 1e-6 * static_cast<double>(i);
    r.key = f.keys[i * 900] + (i % 2);
    r.scan_n = asked[i];
    los.push_back(r.key);
    ASSERT_TRUE(s.admit(r));
  }
  ASSERT_TRUE(s.size_ready());
  const auto d = s.dispatch_ready(1e-5, 0.0, 0);
  ASSERT_EQ(d.responses.size(), 8u);
  EXPECT_EQ(d.kind, RequestKind::kScan);
  for (std::size_t i = 0; i < 8; ++i) {
    const std::size_t limit =
        std::min<std::size_t>(std::max<std::uint32_t>(asked[i], 1),
                              cfg.max_range_results);
    const auto want = f.index.scan_host(los[i], limit);
    ASSERT_EQ(d.responses[i].range_values.size(), want.size()) << "scan " << i;
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(d.responses[i].range_values[j], want[j].value);
    }
  }
}

TEST(EpochUpdater, AppliesBufferAndChargesResync) {
  ServeFixture f;
  EpochConfig cfg;
  cfg.seconds_per_op = 1e-6;
  EpochUpdater u(f.index, f.link, cfg);

  const std::vector<Key> probe(f.keys.begin(), f.keys.begin() + 4);
  const auto batch = [&](Value base) {
    std::vector<queries::UpdateOp> ops;
    for (std::uint64_t i = 0; i < 4; ++i)
      ops.push_back({queries::OpKind::kUpdate, probe[i], base + i});
    return ops;
  };
  // What the device serves, through the search kernel.
  const auto served = [&] { return f.index.search(probe).values; };
  const auto values = [](Value base) {
    return std::vector<Value>{base, base + 1, base + 2, base + 3};
  };

  // Quiesce: stage and commit at the barrier, charged as fold ops at
  // seconds_per_op; the resync prices the freshly committed image.
  const auto w = u.stage(1, batch(7000), 10e-6, /*may_patch=*/false);
  EXPECT_TRUE(u.inflight());
  u.commit();
  EXPECT_FALSE(u.inflight());
  EXPECT_FALSE(w.patch);
  EXPECT_EQ(w.ops, 4u);
  EXPECT_EQ(w.fold_ops, 4u);
  EXPECT_EQ(w.patch_ops, 0u);
  EXPECT_EQ(w.stats.total_ops(), 4u);
  EXPECT_DOUBLE_EQ(w.fold_seconds, 4e-6);
  EXPECT_DOUBLE_EQ(w.build_seconds(), 4e-6);
  const double resync = u.resync(10e-6 + w.build_seconds());
  EXPECT_GT(resync, 0.0);
  EXPECT_DOUBLE_EQ(resync, image_resync_seconds(f.index.committed(), f.link));
  EXPECT_EQ(served(), values(7000));

  // Staged: the batch lands in the host tree at stage time, while the
  // device (and every reader of served state) keeps answering epoch N
  // until commit re-images it.
  const auto staged = u.stage(2, batch(9000), 20e-6, /*may_patch=*/true);
  EXPECT_TRUE(u.inflight());
  EXPECT_FALSE(staged.patch);  // quiesce config never patches in place
  EXPECT_EQ(staged.fold_ops, 4u);
  EXPECT_EQ(staged.stats.total_ops(), 4u);
  EXPECT_DOUBLE_EQ(u.upload(20e-6 + staged.build_seconds()),
                   image_resync_seconds(f.index.tree(), f.link));
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(f.index.tree().search(probe[i]).value_or(kNotFound), 9000 + i);
    EXPECT_EQ(f.index.search_committed(probe[i]).value_or(kNotFound), 7000 + i);
  }
  EXPECT_EQ(served(), values(7000));
  u.commit();
  EXPECT_FALSE(u.inflight());
  EXPECT_EQ(served(), values(9000));
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(f.index.search_committed(probe[i]).value_or(kNotFound), 9000 + i);
  }
}

}  // namespace
}  // namespace harmonia::serve
