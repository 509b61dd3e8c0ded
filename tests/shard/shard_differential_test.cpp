// Differential fuzzing of the sharded execution layer over 1-8 shards,
// both partition modes, sweeping seeds x fanouts x query distributions:
// the offline point search, and ranges served through ShardedServer's
// fan-out (split at partition boundaries, merged in shard order,
// truncated at max_range_results), must agree exactly with a
// single-device Harmonia index and the CPU btree oracle — including keys
// sitting exactly on partition boundaries and ranges straddling them.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "btree/btree.hpp"
#include "common/rng.hpp"
#include "queries/workload.hpp"
#include "shard/sharded_server.hpp"

namespace harmonia::shard {
namespace {

gpusim::DeviceSpec small_device() {
  auto spec = gpusim::titan_v();
  spec.num_sms = 8;
  spec.global_mem_bytes = 256 << 20;
  return spec;
}

ShardedOptions small_options(unsigned fanout) {
  ShardedOptions options;
  options.index.fanout = fanout;
  options.device = small_device();
  options.device_global_bytes = 256 << 20;
  return options;
}

struct Fixture {
  Fixture(std::uint64_t num_keys, unsigned fanout, std::uint64_t seed,
          ShardPlan shard_plan)
      : keys(queries::make_tree_keys(num_keys, seed)),
        entries([&] {
          std::vector<btree::Entry> e;
          e.reserve(keys.size());
          for (Key k : keys) e.push_back({k, btree::value_for_key(k)});
          return e;
        }()),
        oracle(fanout),
        single_device(small_device()),
        single([&] {
          return HarmoniaIndex::build(single_device, entries, {.fanout = fanout});
        }()),
        sharded(entries, std::move(shard_plan), small_options(fanout)) {
    oracle.bulk_load(entries);
  }

  std::vector<Key> keys;
  std::vector<btree::Entry> entries;
  btree::BTree oracle;
  gpusim::Device single_device;
  HarmoniaIndex single;
  ShardedIndex sharded;
};

/// Queries that stress the partition: every shard's exact bounds, keys
/// adjacent to every boundary, plus hits and misses from `dist`.
std::vector<Key> make_probe_batch(const Fixture& f, queries::Distribution dist,
                                  std::uint64_t seed) {
  std::vector<Key> batch = queries::make_queries(f.keys, 512, dist, seed);
  const auto missing = queries::make_missing_keys(f.keys, 64, seed + 1);
  batch.insert(batch.end(), missing.begin(), missing.end());
  const ShardPlan& plan = f.sharded.plan();
  for (unsigned s = 0; s < plan.num_shards(); ++s) {
    batch.push_back(plan.lo(s));
    if (plan.lo(s) > 0) batch.push_back(plan.lo(s) - 1);
    // The last shard's hi is 2^64-1 == kReservedKey, the device-image pad
    // key, which query generators never produce — probe up to hi-1 there.
    if (plan.hi(s) < ~Key{0}) {
      batch.push_back(plan.hi(s));
      batch.push_back(plan.hi(s) + 1);
    } else {
      batch.push_back(plan.hi(s) - 1);
    }
  }
  return batch;
}

void check_search_agreement(Fixture& f, queries::Distribution dist,
                            std::uint64_t seed) {
  const auto batch = make_probe_batch(f, dist, seed);
  const auto sharded = f.sharded.search(batch);
  const auto single = f.single.search(batch);
  ASSERT_EQ(sharded.values.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Value want = f.oracle.search(batch[i]).value_or(kNotFound);
    ASSERT_EQ(sharded.values[i], want) << "query " << i << " key " << batch[i];
    ASSERT_EQ(sharded.values[i], single.values[i])
        << "sharded vs single-device divergence at query " << i;
  }
  // Routing conservation: every query landed in exactly one shard.
  std::uint64_t routed = 0;
  for (std::uint64_t n : sharded.per_shard) routed += n;
  EXPECT_EQ(routed, batch.size());
}

/// Serves the ranges [los[i], his[i]] as one query-only open-loop stream
/// through a ShardedServer over the fixture's index (no update ever
/// buffers, so every answer reads the bulk-loaded image) and returns the
/// responses by request id. `cap` is the server's max_range_results.
std::vector<serve::Response> serve_ranges(Fixture& f, const std::vector<Key>& los,
                                          const std::vector<Key>& his,
                                          unsigned cap,
                                          serve::ServerReport* report = nullptr) {
  std::vector<serve::Request> stream(los.size());
  for (std::size_t i = 0; i < los.size(); ++i) {
    stream[i].id = i;
    stream[i].kind = serve::RequestKind::kRange;
    stream[i].arrival = static_cast<double>(i) * 1e-6;
    stream[i].key = los[i];
    stream[i].hi = his[i];
  }
  serve::ServeOptions cfg;
  cfg.batch.max_batch = 64;
  cfg.batch.queue_capacity = 1 << 12;  // no drops: every range checked
  cfg.batch.max_range_results = cap;
  ShardedServer server(f.sharded, cfg);
  serve::ServerReport rep = server.run(stream);
  EXPECT_EQ(rep.dropped, 0u);
  std::vector<serve::Response> by_id(stream.size());
  for (serve::Response& r : rep.responses) by_id.at(r.id) = std::move(r);
  if (report != nullptr) *report = std::move(rep);
  return by_id;
}

/// The ascending oracle values of keys in [lo, hi], at most `cap`.
std::vector<Value> oracle_range(const Fixture& f, Key lo, Key hi, unsigned cap) {
  std::vector<Value> want;
  for (const auto& e : f.oracle.range(lo, hi, cap)) want.push_back(e.value);
  return want;
}

void check_range_agreement(Fixture& f, std::uint64_t seed, unsigned max_results) {
  const ShardPlan& plan = f.sharded.plan();
  std::vector<Key> los, his;
  // Ranges centered on every partition boundary (guaranteed straddling
  // when the boundary is interior), plus random spans of varying width.
  // Keep his below kReservedKey (2^64-1): that key is the device-image
  // pad and never a real query target.
  const Key hi_cap = ~Key{0} - 1;
  for (unsigned s = 0; s + 1 < plan.num_shards(); ++s) {
    const Key b = plan.lo(s + 1);
    const Key width = (plan.hi(s) - plan.lo(s)) / 4;
    los.push_back(b - std::min(b, width));
    his.push_back(b + std::min(hi_cap - b, width));
  }
  Xoshiro256 rng(seed);
  for (int i = 0; i < 48; ++i) {
    const Key lo = f.keys[rng.next_below(f.keys.size())];
    // Wide enough that some spans cross several shards.
    const Key span = rng.next() >> (2 + rng.next_below(12));
    los.push_back(lo);
    his.push_back(lo + std::min(hi_cap - lo, span));
  }
  // Degenerate single-key ranges on boundary keys.
  for (unsigned s = 0; s + 1 < plan.num_shards(); ++s) {
    los.push_back(plan.lo(s + 1));
    his.push_back(plan.lo(s + 1));
  }

  serve::ServerReport rep;
  const auto served = serve_ranges(f, los, his, max_results, &rep);
  const auto single = f.single.range_device(los, his, max_results);
  for (std::size_t i = 0; i < los.size(); ++i) {
    ASSERT_EQ(served[i].range_values, oracle_range(f, los[i], his[i], max_results))
        << "range " << i << " [" << los[i] << ", " << his[i] << "]";
    ASSERT_EQ(served[i].range_values, single.values[i])
        << "sharded vs single-device range divergence at " << i;
  }
  if (plan.num_shards() > 1) {
    EXPECT_GT(rep.split_ranges, 0u);
  }
}

TEST(ShardDifferential, SearchAgreesAcrossShardCountsAndModes) {
  for (const unsigned shards : {1u, 2u, 3u, 5u, 8u}) {
    for (const bool balanced : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << (balanced ? "balanced" : "width") << " x" << shards);
      const std::uint64_t seed = 11 + shards;
      const auto keys = queries::make_tree_keys(1 << 10, seed);
      Fixture f(1 << 10, 16, seed,
                balanced ? ShardPlan::sample_balanced(keys, shards)
                         : ShardPlan::equal_width(shards));
      check_search_agreement(f, queries::Distribution::kUniform, seed + 1);
    }
  }
}

TEST(ShardDifferential, SearchAgreesAcrossFanoutsSeedsDistributions) {
  for (const unsigned fanout : {8u, 64u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      for (const auto dist : {queries::Distribution::kUniform,
                              queries::Distribution::kZipfian,
                              queries::Distribution::kSorted}) {
        SCOPED_TRACE(testing::Message() << "fanout " << fanout << " seed "
                                        << seed << " dist "
                                        << queries::to_string(dist));
        const auto keys = queries::make_tree_keys(1500, seed);
        Fixture f(1500, fanout, seed, ShardPlan::sample_balanced(keys, 4));
        check_search_agreement(f, dist, seed * 31);
      }
    }
  }
}

TEST(ShardDifferential, RangeAgreesIncludingStraddlingBoundaries) {
  for (const unsigned shards : {1u, 2u, 4u, 8u}) {
    for (const bool balanced : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << (balanced ? "balanced" : "width") << " x" << shards);
      const std::uint64_t seed = 23 + shards;
      const auto keys = queries::make_tree_keys(1 << 10, seed);
      Fixture f(1 << 10, 16, seed,
                balanced ? ShardPlan::sample_balanced(keys, shards)
                         : ShardPlan::equal_width(shards));
      check_range_agreement(f, seed + 5, 16);
    }
  }
}

TEST(ShardDifferential, RangeTruncationMatchesSingleDevice) {
  // A span covering the whole domain must truncate identically whether
  // the results come from one device or are merged across all shards.
  const std::uint64_t seed = 77;
  const auto keys = queries::make_tree_keys(2000, seed);
  Fixture f(2000, 16, seed, ShardPlan::sample_balanced(keys, 5));
  std::vector<Key> los{0, keys[100]};
  std::vector<Key> his{~Key{0} - 1, keys[1900]};
  for (const unsigned cap : {1u, 7u, 64u}) {
    serve::ServerReport rep;
    const auto served = serve_ranges(f, los, his, cap, &rep);
    const auto single = f.single.range_device(los, his, cap);
    for (std::size_t i = 0; i < los.size(); ++i) {
      ASSERT_EQ(served[i].range_values.size(), std::min<std::size_t>(cap, 2000u));
      ASSERT_EQ(served[i].range_values, oracle_range(f, los[i], his[i], cap))
          << "cap " << cap;
      ASSERT_EQ(served[i].range_values, single.values[i]) << "cap " << cap;
    }
    EXPECT_EQ(rep.split_ranges, los.size());
  }
}

TEST(ShardDifferential, TruncationExactlyAtShardCut) {
  // The nastiest truncation case: a straddling range whose result cap
  // lands *exactly* on a partition boundary, so one side of the cut
  // contributes precisely `limit` results and the other must contribute
  // none (and, one key later, exactly one). Off-by-one in the fan-out
  // merge shows up only here — interior caps are covered above.
  const std::uint64_t seed = 91;
  const auto keys = queries::make_tree_keys(1 << 11, seed);
  Fixture f(1 << 11, 16, seed, ShardPlan::sample_balanced(keys, 4));
  const ShardPlan& plan = f.sharded.plan();

  std::vector<Key> sorted = f.keys;
  std::sort(sorted.begin(), sorted.end());

  // Per boundary, spans holding exactly m keys of shard s plus the first
  // key of shard s+1. The cap is the server's max_range_results, so each
  // cap serves one stream: m-1 (truncate before the cut), m (truncate
  // precisely at it: shard s+1 must contribute nothing) and m+1 (exactly
  // one result crosses it).
  for (unsigned cap = 1; cap <= 6; ++cap) {
    SCOPED_TRACE(testing::Message() << "cap " << cap);
    std::vector<Key> los, his;
    std::vector<std::size_t> ms;
    for (unsigned s = 0; s + 1 < plan.num_shards(); ++s) {
      const Key boundary = plan.lo(s + 1);  // first key owned by shard s+1
      const auto cut = std::lower_bound(sorted.begin(), sorted.end(), boundary);
      const auto left = static_cast<std::size_t>(cut - sorted.begin());
      const auto right = sorted.size() - left;
      for (const std::size_t m : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
        if (left < m || right == 0 || cap + 1 < m || cap > m + 1) continue;
        const Key lo = sorted[left - m];  // span holds exactly m keys
        const Key hi = *cut;              // ... plus 1 across the cut
        ASSERT_EQ(plan.shard_of(lo), s);
        ASSERT_EQ(plan.shard_of(hi), s + 1);
        los.push_back(lo);
        his.push_back(hi);
        ms.push_back(m);
      }
    }
    ASSERT_FALSE(los.empty());
    serve::ServerReport rep;
    const auto served = serve_ranges(f, los, his, cap, &rep);
    const auto single = f.single.range_device(los, his, cap);
    for (std::size_t i = 0; i < los.size(); ++i) {
      const auto want = oracle_range(f, los[i], his[i], cap);
      ASSERT_EQ(want.size(), std::min<std::size_t>(cap, ms[i] + 1));
      ASSERT_EQ(served[i].range_values, want) << "m=" << ms[i];
      ASSERT_EQ(served[i].range_values, single.values[i]) << "m=" << ms[i];
    }
    // Every span crosses exactly one cut.
    EXPECT_EQ(rep.split_ranges, los.size());
  }
}

}  // namespace
}  // namespace harmonia::shard
