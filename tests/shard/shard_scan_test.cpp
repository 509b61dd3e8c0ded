// Differential tests of first-class online scans ([lo, n): the first n
// values with key >= lo). The device-side scan — single-device
// scan_device and ShardedServer's fan-out that splits a scan's coverage
// across partition boundaries and merges pieces in shard order — must be
// byte-identical to the CPU scan oracle, including scans launched from
// partition boundaries, scans overrunning the whole key population, and
// scans served online across the overlap pipeline's staggered epoch
// swaps (where every reassembled answer must match one whole-epoch
// snapshot, never a mix of two).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "queries/workload.hpp"
#include "serve/workload.hpp"
#include "serving_oracle.hpp"
#include "shard/sharded_server.hpp"

namespace harmonia::shard {
namespace {

using namespace testing_support;

/// Scan starting points that stress the partition: exact keys, gaps,
/// every shard boundary (and its neighbours), and points past the last
/// key. Paired with counts from 1 up to several shard-spans.
void make_probe_scans(const ShardedFixture& f, std::vector<Key>& los,
                      std::vector<std::uint32_t>& ns) {
  Xoshiro256 rng(99);
  const std::uint32_t counts[] = {1, 3, 16, 64, 300, 1500, 5000};
  for (int i = 0; i < 256; ++i) {
    const Key base = f.keys[rng.next_below(f.keys.size())];
    los.push_back(i % 2 == 0 ? base : base + 1);  // exact key / gap
    ns.push_back(counts[rng.next_below(std::size(counts))]);
  }
  const ShardPlan& plan = f.index.plan();
  for (unsigned s = 0; s < plan.num_shards(); ++s) {
    for (const Key lo : {plan.lo(s), plan.lo(s) > 0 ? plan.lo(s) - 1 : 0}) {
      los.push_back(lo);
      ns.push_back(300);  // reaches past the boundary from either side
    }
  }
  los.push_back(f.keys.back());      // tail: 1 result
  ns.push_back(64);
  los.push_back(f.keys.back() + 1);  // past every key: empty
  ns.push_back(64);
}

// Acceptance: scans served through the sharded fan-out and the
// single-device scan are both byte-identical to the CPU oracle, boundary
// scans included. The stream is query-only, so every answer reads the
// bulk-loaded image; max_range_results sits above every count, so no
// scan clamps.
TEST(ShardScan, DeviceScanMatchesHostOracleAcrossShards) {
  for (const unsigned shards : {1u, 3u, 4u}) {
    SCOPED_TRACE(testing::Message() << shards << " shard(s)");
    ShardedFixture f(shards);
    ServerFixture one(1 << 12, 16, small_device());
    std::vector<Key> los;
    std::vector<std::uint32_t> ns;
    make_probe_scans(f, los, ns);

    std::vector<serve::Request> stream(los.size());
    for (std::size_t q = 0; q < los.size(); ++q) {
      stream[q].id = q;
      stream[q].kind = serve::RequestKind::kScan;
      stream[q].arrival = static_cast<double>(q) * 1e-6;
      stream[q].key = los[q];
      stream[q].scan_n = ns[q];
    }
    serve::ServeOptions cfg;
    cfg.batch.max_batch = 64;
    cfg.batch.queue_capacity = 1 << 12;  // no drops: every scan checked
    cfg.batch.max_range_results = *std::max_element(ns.begin(), ns.end());
    ShardedServer server(f.index, cfg);
    const auto rep = server.run(stream);
    ASSERT_EQ(rep.dropped, 0u);
    ASSERT_EQ(rep.responses.size(), los.size());
    const auto single = one.index.scan_device(los, ns);
    ASSERT_EQ(single.values.size(), los.size());

    std::uint64_t total = 0;
    for (const serve::Response& resp : rep.responses) {
      const std::size_t q = resp.id;
      const auto oracle = f.index.scan_host(los[q], ns[q]);
      std::vector<Value> want;
      want.reserve(oracle.size());
      for (const auto& e : oracle) want.push_back(e.value);
      ASSERT_EQ(resp.range_values, want)
          << "scan " << q << " lo=" << los[q] << " n=" << ns[q];
      ASSERT_EQ(single.values[q], want) << "scan " << q;
      total += want.size();
    }
    EXPECT_EQ(single.total_results, total);
    if (shards > 1) {
      EXPECT_GT(rep.split_scans, 0u);
    }
  }
}

// scan_end_shard really bounds a scan's coverage: the host tail of the
// first shard plus the whole key counts of the shards after it reach n
// (or the span ends at the last shard).
TEST(ShardScan, ScanEndShardCoversRequestedCount) {
  ShardedFixture f(4);
  const ShardPlan& plan = f.index.plan();
  Xoshiro256 rng(5);
  for (int i = 0; i < 200; ++i) {
    const Key lo = f.keys[rng.next_below(f.keys.size())] + rng.next_below(2);
    const auto n = static_cast<std::uint32_t>(1 + rng.next_below(4000));
    const unsigned s0 = plan.shard_of(lo);
    const unsigned s1 = f.index.scan_end_shard(lo, n);
    ASSERT_GE(s1, s0);
    // Keys available on [s0, s1] from lo onward.
    std::uint64_t have = f.index.range_host(lo, plan.hi(s0), n).size();
    for (unsigned s = s0 + 1; s <= s1; ++s) have += f.index.shard_key_count(s);
    if (s1 + 1 < plan.num_shards()) {
      ASSERT_GE(have, n) << "lo=" << lo << " n=" << n;
      // Minimal: when the span extended past its first shard, dropping
      // the last shard must lose coverage (a single-shard span has no
      // proper prefix to test).
      if (s1 > s0) {
        std::uint64_t without = f.index.range_host(lo, plan.hi(s0), n).size();
        for (unsigned s = s0 + 1; s < s1; ++s)
          without += f.index.shard_key_count(s);
        ASSERT_LT(without, n) << "lo=" << lo << " n=" << n;
      }
    }
    // The oracle never returns more than the span can hold.
    ASSERT_LE(f.index.scan_host(lo, n).size(), n);
  }
}

/// First min(n, cap) oracle values with key >= lo — what a served scan
/// must return.
std::vector<Value> oracle_scan(const Oracle& oracle, Key lo,
                               std::uint32_t n, std::uint32_t cap) {
  std::vector<Value> want;
  const std::uint32_t limit = std::min(std::max<std::uint32_t>(n, 1), cap);
  for (auto it = oracle.lower_bound(lo); it != oracle.end() && want.size() < limit;
       ++it) {
    want.push_back(it->second);
  }
  return want;
}

// Acceptance: online scans served through the sharded backend across
// staggered staged swaps — shard-straddling fan-outs, the version fence,
// and parked straddlers included — every scan response is byte-identical
// to the CPU oracle at one whole-epoch snapshot. `mode` picks the epoch
// pipeline (and `overlay_capacity` the delta overlay bound).
void expect_online_scans_match_snapshots(serve::EpochMode mode, std::uint64_t seed,
                                         std::size_t overlay_capacity) {
  ShardedFixture f(4);

  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 5e6;
  spec.count = 8000;
  spec.update_fraction = 0.25;
  spec.scan_fraction = 0.20;
  spec.scan_n = 96;  // ~a tenth of a shard: boundary starts straddle
  spec.seed = seed;
  const auto stream = serve::make_open_loop(f.keys, spec);

  serve::ServeOptions cfg;
  cfg.batch.max_batch = 256;
  cfg.batch.max_wait = 100e-6;
  cfg.batch.queue_capacity = 8192;  // no drops: every scan oracle-checked
  cfg.batch.max_range_results = 96;
  cfg.epoch.max_buffered = 400;
  cfg.epoch.mode = mode;
  cfg.epoch.overlay_capacity = overlay_capacity;

  ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);

  ASSERT_EQ(rep.dropped, 0u);
  ASSERT_EQ(rep.responses.size(), stream.size());
  ASSERT_GE(rep.epochs, 3u);
  EXPECT_GT(rep.split_scans, 0u);  // straddling scan fan-outs really happened
  rep.check_invariants();

  const auto snapshots = epoch_snapshots(f.keys, stream, rep);
  ASSERT_EQ(snapshots.size(), rep.epochs + 1);
  ASSERT_NO_FATAL_FAILURE(
      check_responses(stream, rep, snapshots, cfg.batch.max_range_results));
  EXPECT_GT(count_responses(rep, serve::RequestKind::kScan), 1000u);

  // Determinism: an identical fresh fixture + stream replays to
  // byte-identical scan results and completion times.
  ShardedFixture g(4);
  const auto stream2 = serve::make_open_loop(g.keys, spec);
  ShardedServer server_b(g.index, cfg);
  const auto rep_b = server_b.run(stream2);
  ASSERT_EQ(rep.responses.size(), rep_b.responses.size());
  for (std::size_t i = 0; i < rep.responses.size(); ++i) {
    EXPECT_EQ(rep.responses[i].range_values, rep_b.responses[i].range_values);
    EXPECT_DOUBLE_EQ(rep.responses[i].completion, rep_b.responses[i].completion);
  }
}

TEST(ShardScan, OnlineScansMatchSnapshotOracleAcrossOverlapSwaps) {
  expect_online_scans_match_snapshots(serve::EpochMode::kOverlap, 42, 1024);
}

// Delta patch windows: the host trees run one epoch ahead of the images
// they serve, so a straddling scan's fan-out must be sized on the
// committed image and device overlay — counting the host tree's next
// epoch (seed 3: scan 2098 at epoch 0) returns a short scan.
TEST(ShardScan, OnlineScansMatchSnapshotOracleAcrossDeltaPatches) {
  expect_online_scans_match_snapshots(serve::EpochMode::kIncremental, 3, 4096);
}

// Scans through the quiesce-mode single-snapshot path (epochs drain every
// queue, so no fence is involved): same oracle contract, and the scan
// cap clamps to max_range_results.
TEST(ShardScan, QuiesceScansClampToMaxRangeResults) {
  ShardedFixture f(2);

  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 4e6;
  spec.count = 4000;
  spec.scan_fraction = 0.30;
  spec.scan_n = 500;  // far above the cap: every scan clamps
  spec.seed = 9;
  const auto stream = serve::make_open_loop(f.keys, spec);

  serve::ServeOptions cfg;
  cfg.batch.max_batch = 256;
  cfg.batch.queue_capacity = 8192;
  cfg.batch.max_range_results = 48;

  ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);
  ASSERT_EQ(rep.dropped, 0u);
  rep.check_invariants();

  const Oracle oracle = initial_oracle(f.keys);
  std::uint64_t full = 0;
  for (const auto& resp : rep.responses) {
    if (resp.kind != serve::RequestKind::kScan) continue;
    const serve::Request& req = stream[resp.id];
    const auto want =
        oracle_scan(oracle, req.key, req.scan_n, cfg.batch.max_range_results);
    ASSERT_LE(resp.range_values.size(), cfg.batch.max_range_results);
    ASSERT_EQ(resp.range_values, want) << "scan " << resp.id;
    if (resp.range_values.size() == cfg.batch.max_range_results) ++full;
  }
  EXPECT_GT(full, 0u);  // the clamp really bit
}

}  // namespace
}  // namespace harmonia::shard
