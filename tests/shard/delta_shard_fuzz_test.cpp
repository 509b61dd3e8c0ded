// Differential fuzz of incremental (delta) epochs on the sharded
// backend: a seeded mixed stream with straddling ranges and scans runs
// against a ShardedServer in kIncremental mode whose tiny per-shard
// overlay bound forces each shard to alternate between in-place patch
// commits and fold-compaction fallbacks — independently, behind the
// shared version fence. Every response is checked against the snapshot
// for the epoch it reports (the response-derived oracle from
// shard_swap_test.cpp), so a patch that became visible before its
// shard's fence cleared, or a straddler reassembled across a
// patch/compaction boundary, fails as an oracle mismatch. The runs
// cross >= 1000 per-shard commit boundaries (epochs x shards), both
// epoch kinds must occur, and the same seed must replay byte-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/expect.hpp"
#include "queries/workload.hpp"
#include "serve/workload.hpp"
#include "shard/sharded_server.hpp"

namespace harmonia::shard {
namespace {

gpusim::DeviceSpec test_spec() {
  auto spec = gpusim::titan_v();
  spec.num_sms = 8;
  spec.global_mem_bytes = 256 << 20;
  return spec;
}

ShardedOptions test_options(unsigned fanout) {
  ShardedOptions options;
  options.index.fanout = fanout;
  options.device = test_spec();
  options.device_global_bytes = 256 << 20;
  return options;
}

struct ShardedFixture {
  explicit ShardedFixture(unsigned shards, std::uint64_t tree_keys = 1 << 12,
                          unsigned fanout = 16)
      : keys(queries::make_tree_keys(tree_keys, 1)),
        index([&] {
          std::vector<btree::Entry> entries;
          for (Key k : keys) entries.push_back({k, btree::value_for_key(k)});
          return ShardedIndex(entries, ShardPlan::sample_balanced(keys, shards),
                              test_options(fanout));
        }()) {}

  std::vector<Key> keys;
  ShardedIndex index;
};

/// Mirrors BatchUpdater semantics on a std::map (as in server_test.cpp).
void apply_to_oracle(std::map<Key, Value>& oracle, const serve::Request& r) {
  switch (r.op) {
    case queries::OpKind::kUpdate:
      if (auto it = oracle.find(r.key); it != oracle.end()) it->second = r.value;
      break;
    case queries::OpKind::kInsert:
      oracle[r.key] = r.value;
      break;
    case queries::OpKind::kDelete:
      oracle.erase(r.key);
      break;
  }
}

/// Rebuilds the snapshots the run served from: group the stream's
/// updates by the epoch ordinal their response reports, apply groups in
/// epoch order (arrival order within a group).
std::vector<std::map<Key, Value>> snapshots_from_responses(
    const std::vector<Key>& keys, const std::vector<serve::Request>& stream,
    const serve::ServerReport& rep) {
  std::vector<unsigned> epoch_of(stream.size(), 0);
  for (const serve::Response& resp : rep.responses) {
    if (resp.kind == serve::RequestKind::kUpdate) epoch_of[resp.id] = resp.epoch;
  }
  std::vector<std::map<Key, Value>> snapshots;
  std::map<Key, Value> oracle;
  for (Key k : keys) oracle[k] = btree::value_for_key(k);
  snapshots.push_back(oracle);
  for (unsigned e = 1; e <= rep.epochs; ++e) {
    for (const serve::Request& r : stream) {
      if (r.kind == serve::RequestKind::kUpdate && epoch_of[r.id] == e)
        apply_to_oracle(oracle, r);
    }
    snapshots.push_back(oracle);
  }
  return snapshots;
}

/// Checks every response against the snapshot for the epoch it reports.
void check_against_snapshots(
    const std::vector<serve::Request>& stream, const serve::ServerReport& rep,
    const std::vector<std::map<Key, Value>>& snapshots,
    std::size_t max_range_results) {
  for (const auto& resp : rep.responses) {
    ASSERT_LT(resp.epoch, snapshots.size());
    const auto& oracle = snapshots[resp.epoch];
    const serve::Request& req = stream[resp.id];
    switch (resp.kind) {
      case serve::RequestKind::kPoint: {
        const auto it = oracle.find(req.key);
        const Value want = it != oracle.end() ? it->second : kNotFound;
        ASSERT_EQ(resp.value, want)
            << "request " << resp.id << " epoch " << resp.epoch;
        break;
      }
      case serve::RequestKind::kRange: {
        std::vector<Value> want;
        for (auto it = oracle.lower_bound(req.key);
             it != oracle.end() && it->first <= req.hi &&
             want.size() < max_range_results;
             ++it) {
          want.push_back(it->second);
        }
        ASSERT_EQ(resp.range_values, want)
            << "range request " << resp.id << " epoch " << resp.epoch;
        break;
      }
      case serve::RequestKind::kScan: {
        std::size_t limit = req.scan_n ? req.scan_n : 1;
        if (limit > max_range_results) limit = max_range_results;
        std::vector<Value> want;
        for (auto it = oracle.lower_bound(req.key);
             it != oracle.end() && want.size() < limit; ++it) {
          want.push_back(it->second);
        }
        ASSERT_EQ(resp.range_values, want)
            << "scan request " << resp.id << " epoch " << resp.epoch;
        break;
      }
      case serve::RequestKind::kUpdate:
        EXPECT_GE(resp.completion, resp.arrival);
        EXPECT_GE(resp.epoch, 1u);
        break;
    }
  }
}

serve::ServeOptions delta_config(std::uint64_t max_buffered,
                                 std::size_t overlay_cap) {
  serve::ServeOptions cfg;
  cfg.batch.max_batch = 256;
  cfg.batch.max_wait = 100e-6;
  cfg.batch.queue_capacity = 1 << 15;  // no drops: every request oracle-checked
  cfg.batch.max_range_results = 16;
  cfg.epoch.max_buffered = max_buffered;
  cfg.epoch.max_wait = 50e-6;
  // Single-threaded apply: the striped multi-worker apply may order two
  // same-batch ops on one key either way, which the arrival-order map
  // oracle cannot model.
  cfg.epoch.apply_threads = 1;
  cfg.epoch.mode = serve::EpochMode::kIncremental;
  cfg.epoch.overlay_capacity = overlay_cap;
  return cfg;
}

// Acceptance: >= 1000 per-shard patch/compaction/swap boundaries
// (epochs x shards) with straddling ranges and scans in flight — every
// reassembled answer matches one whole-epoch snapshot, each shard's
// overlay folds independently, and both commit paths really ran.
TEST(DeltaShardFuzz, DifferentialOracleAcrossThousandShardBoundaries) {
  ShardedFixture f(3);

  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 5e6;
  spec.count = 52000;
  spec.update_fraction = 0.35;
  spec.range_fraction = 0.08;
  spec.range_span = 64;  // wide enough to straddle partition boundaries
  spec.scan_fraction = 0.05;
  spec.scan_n = 12;
  spec.seed = 4242;
  const auto stream = serve::make_open_loop(f.keys, spec);

  serve::ServeOptions cfg =
      delta_config(/*max_buffered=*/12, /*overlay_cap=*/24);
  // Per-shard commits land on batch boundaries behind the fence, so
  // boundary density bounds the epoch rate: small batches, a free
  // modeled apply, and a fast link pack >= 1000 per-shard boundaries
  // into the stream (as in the swap-fence stress).
  cfg.batch.max_batch = 64;
  cfg.epoch.seconds_per_op = 0.0;
  cfg.epoch.seconds_per_patch_op = 0.0;
  cfg.link.gigabytes_per_second = 100.0;
  cfg.link.latency_seconds = 1e-6;
  ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);

  ASSERT_EQ(rep.dropped, 0u);
  ASSERT_EQ(rep.responses.size(), stream.size());
  ASSERT_GE(rep.epochs * f.index.num_shards(), 1000u)
      << "the stream must cross >= 1000 per-shard commit boundaries";
  EXPECT_GT(rep.split_ranges, 0u);  // straddling fan-outs really happened
  // The tiny per-shard overlays must have forced both commit paths.
  EXPECT_GT(rep.patch_epochs, 0u);
  EXPECT_GT(rep.compaction_epochs, 0u);
  EXPECT_EQ(rep.patch_epochs + rep.compaction_epochs, rep.epochs);

  const auto snapshots = snapshots_from_responses(f.keys, stream, rep);
  ASSERT_EQ(snapshots.size(), rep.epochs + 1);
  check_against_snapshots(stream, rep, snapshots, cfg.batch.max_range_results);

  // Every shard served work; after the final drain the live index
  // equals the last snapshot (the host search consults per-shard
  // overlays, so entries still parked there are covered too), every
  // shard tree validates, and no overlay exceeds its bound.
  const auto& final_oracle = snapshots.back();
  for (unsigned s = 0; s < f.index.num_shards(); ++s) {
    EXPECT_GT(rep.shard_batches[s], 0u) << "shard " << s;
    f.index.shard(s)->tree().validate();
    EXPECT_LE(f.index.shard(s)->overlay_live_count() +
                  f.index.shard(s)->overlay_tombstone_count(),
              cfg.epoch.overlay_capacity)
        << "shard " << s;
  }
  for (const auto& [k, v] : final_oracle) {
    ASSERT_EQ(f.index.search_host(k).value_or(kNotFound), v);
  }
}

// Acceptance: sharded incremental epochs replay deterministically —
// per-shard patch-or-compact decisions, fences, and parking included.
TEST(DeltaShardFuzz, DeterministicReplay) {
  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 4e6;
  spec.count = 6000;
  spec.update_fraction = 0.3;
  spec.range_fraction = 0.15;
  spec.range_span = 1024;
  spec.seed = 17;

  auto run_once = [&] {
    ShardedFixture f(3);
    const auto stream = serve::make_open_loop(f.keys, spec);
    const serve::ServeOptions cfg =
        delta_config(/*max_buffered=*/64, /*overlay_cap=*/32);
    ShardedServer server(f.index, cfg);
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
  EXPECT_EQ(a.patch_epochs, b.patch_epochs);
  EXPECT_EQ(a.compaction_epochs, b.compaction_epochs);
  EXPECT_DOUBLE_EQ(a.epoch_patch_upload_seconds, b.epoch_patch_upload_seconds);
}

}  // namespace
}  // namespace harmonia::shard
