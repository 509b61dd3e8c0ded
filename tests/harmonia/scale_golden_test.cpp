// Golden simulator counters at a scale where the cache model matters.
//
// A seeded point-lookup batch (PSA + NTG) and a range batch run against a
// tree with a non-empty delta overlay on a shrunken device: the L2 and
// the per-SM read-only caches are small enough that LRU eviction and set
// conflicts happen within single warp accesses. Every KernelMetrics counter and the
// per-SM cycle vectors are pinned, so any change to the order in which a
// warp's lines probe the caches (the coalescer's output order), to the
// cache replacement, or to the cycle model fails tier-1 here instead of
// showing up only as benchmark drift.
//
// The pinned values are the simulator's output, not derived by hand. A
// change that moves them on purpose must say why and re-record them.
#include <gtest/gtest.h>

#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "btree/btree.hpp"
#include "harmonia/index.hpp"
#include "hbtree/index.hpp"
#include "queries/batch.hpp"
#include "queries/workload.hpp"

namespace harmonia {
namespace {

using queries::OpKind;
using queries::UpdateOp;

gpusim::DeviceSpec small_cache_spec() {
  auto spec = gpusim::titan_v();
  spec.num_sms = 4;
  spec.global_mem_bytes = 64 << 20;
  // The order in which one warp access probes its lines only shows when
  // several of them share a set and are then reused. With larger caches
  // these batches moved no counter when that order was reversed; with a
  // 2-set read-only cache every multi-line access conflicts.
  spec.cache_ways = 2;
  spec.l2_bytes = 9 << 10;                 // 36 sets x 2 ways
  spec.readonly_cache_bytes_per_sm = 512;  // 2 sets x 2 ways
  return spec;
}

struct Pinned {
  std::uint64_t warps, steps, coherent_steps, loads, divergent_loads, transactions,
      dram_transactions, l2_hits, readonly_hits, const_hits;
  std::vector<std::uint64_t> sm_compute_cycles, sm_mem_cycles, sm_resident_warps;
};

Pinned pin(const gpusim::KernelMetrics& m) {
  return {m.warps,          m.steps,          m.coherent_steps,    m.loads,
          m.divergent_loads, m.transactions,  m.dram_transactions, m.l2_hits,
          m.readonly_hits,  m.const_hits,     m.sm_compute_cycles, m.sm_mem_cycles,
          m.sm_resident_warps};
}

void print_vec(std::ostream& os, const std::vector<std::uint64_t>& v) {
  os << "{";
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << v[i];
  os << "}";
}

/// Prints a Pinned in initializer form, so a failure shows the values to
/// paste when a change moves them on purpose.
std::ostream& operator<<(std::ostream& os, const Pinned& p) {
  os << "{" << p.warps << ", " << p.steps << ", " << p.coherent_steps << ", " << p.loads
     << ", " << p.divergent_loads << ", " << p.transactions << ", " << p.dram_transactions
     << ", " << p.l2_hits << ", " << p.readonly_hits << ", " << p.const_hits << ",\n ";
  print_vec(os, p.sm_compute_cycles);
  os << ",\n ";
  print_vec(os, p.sm_mem_cycles);
  os << ",\n ";
  print_vec(os, p.sm_resident_warps);
  return os << "}";
}

bool operator==(const Pinned& a, const Pinned& b) {
  return a.warps == b.warps && a.steps == b.steps && a.coherent_steps == b.coherent_steps &&
         a.loads == b.loads && a.divergent_loads == b.divergent_loads &&
         a.transactions == b.transactions && a.dram_transactions == b.dram_transactions &&
         a.l2_hits == b.l2_hits && a.readonly_hits == b.readonly_hits &&
         a.const_hits == b.const_hits && a.sm_compute_cycles == b.sm_compute_cycles &&
         a.sm_mem_cycles == b.sm_mem_cycles && a.sm_resident_warps == b.sm_resident_warps;
}

/// 64-bit FNV-1a of a trace dump: pins every event's warp, SM, kind, mask,
/// transactions, serving level and cycles, in order.
std::uint64_t trace_digest(const gpusim::Trace& trace) {
  std::ostringstream os;
  trace.dump(os);
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : os.str()) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// A 20k-key fanout-32 tree with no leaf gaps, so fresh inserts land in
/// the delta overlay, and a run of 70 deletes (more than two leaves' worth)
/// empties a leaf, whose last key becomes a tombstone there; both kernels
/// then consult the overlay.
struct ScaleFixture {
  gpusim::Device dev{small_cache_spec()};
  std::vector<Key> keys = queries::make_tree_keys(20000, 3);
  std::vector<Key> fresh = queries::make_missing_keys(keys, 96, 5);
  HarmoniaIndex index = HarmoniaIndex::build(dev, entries(), options());

  ScaleFixture() {
    std::vector<UpdateOp> ops;
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      ops.push_back({OpKind::kInsert, fresh[i], 1000 + i});
    }
    for (std::size_t i = 0; i < 32; ++i) ops.push_back({OpKind::kDelete, keys[i * 601], 0});
    for (std::size_t i = 5001; i < 5071; ++i) ops.push_back({OpKind::kDelete, keys[i], 0});
    const auto pr = index.patch_update(ops);
    EXPECT_EQ(pr.absorbed, ops.size());
    index.commit_patch();
  }

  std::vector<btree::Entry> entries() const {
    std::vector<btree::Entry> out;
    for (Key k : keys) out.push_back({k, btree::value_for_key(k)});
    return out;
  }

  static IndexOptions options() {
    IndexOptions opts;
    opts.fanout = 32;
    opts.fill_factor = 1.0;
    opts.overlay_capacity = 256;
    return opts;
  }
};

TEST(ScaleGolden, FixtureHasANonEmptyOverlay) {
  ScaleFixture f;
  EXPECT_GT(f.index.overlay_size(), 0u);
  EXPECT_GT(f.index.overlay_tombstone_count(), 0u);
  EXPECT_GT(f.index.overlay_live_count(), 0u);
}

TEST(ScaleGolden, PointBatchesWithPsaAndNtg) {
  ScaleFixture f;
  auto batch = queries::make_queries(f.keys, 8192, queries::Distribution::kUniform, 11);
  batch.insert(batch.end(), f.fresh.begin(), f.fresh.end());
  QueryOptions ntg;  // PSA partial + NTG's group size
  const auto a = f.index.search(batch, ntg);
  std::uint64_t found = 0;
  for (Value v : a.values) found += v != kNotFound;
  EXPECT_EQ(found, 8238u);
  EXPECT_EQ(a.group_size_used, 1u);
  EXPECT_EQ(a.sorted_bits, 10u);
  const Pinned want_ntg{259, 18226, 7182, 18827, 8299, 37526, 3838, 20198, 12976, 514,
                        {18292, 18036, 18380, 18196},
                        {639858, 629726, 626508, 623136},
                        {65, 65, 65, 64}};
  EXPECT_EQ(pin(a.search.metrics), want_ntg);

  // Second batch on the warm caches, with 8-lane groups: partial masks,
  // several queries per warp.
  QueryOptions groups;
  groups.auto_ntg = false;
  groups.group_size = 8;
  const auto b = f.index.search(batch, groups);
  EXPECT_EQ(b.values, a.values);
  const Pinned want_groups{2072, 38283, 10795, 42512, 8351, 53032, 4224, 23662, 21002, 4144,
                           {38348, 38252, 38252, 38280},
                           {1577052, 1384946, 1391902, 1383112},
                           {518, 518, 518, 518}};
  EXPECT_EQ(pin(b.search.metrics), want_groups);
}

TEST(ScaleGolden, RangeBatch) {
  ScaleFixture f;
  std::vector<Key> los, his;
  for (std::size_t i = 0; i < 512; ++i) {
    const std::size_t a = (i * 7919) % (f.keys.size() - 64);
    los.push_back(f.keys[a]);
    his.push_back(f.keys[a + 1 + i % 48]);
  }
  const auto r = f.index.range_device(los, his, 32);
  EXPECT_EQ(r.total_results, 11267u);
  const Pinned want{512, 7395, 855, 9773, 2915, 14173, 5790, 4971, 2392, 1020,
                    {7372, 7356, 7408, 7444},
                    {515540, 501820, 507040, 510580},
                    {128, 128, 128, 128}};
  EXPECT_EQ(pin(r.metrics), want);
}

// The launches below span several blocks of the launch engine (512
// warps each; at least three even at 2048), so the serial cache replay
// crosses block boundaries. The counters, the per-SM vectors and the
// full trace were recorded with the warps run one after another on one
// host thread.
constexpr std::uint64_t kMultiBlockQueries = 5000;

TEST(ScaleGolden, MultiBlockSearchLaunch) {
  ScaleFixture f;
  const auto batch =
      queries::make_queries(f.keys, kMultiBlockQueries, queries::Distribution::kUniform, 13);
  QueryOptions opts;
  opts.auto_ntg = false;
  opts.group_size = 32;  // one query per warp
  f.dev.trace().enable(1 << 20);
  const auto r = f.index.search(batch, opts);
  EXPECT_EQ(r.search.warps, kMultiBlockQueries);
  EXPECT_EQ(f.dev.trace().dropped(), 0u);
  EXPECT_EQ(f.dev.trace().events().size(), 146875u);
  EXPECT_EQ(trace_digest(f.dev.trace()), 10895364211487715504u);
  const Pinned want{5000, 68447, 0, 78428, 15000, 102320, 4864, 62473, 24987, 9996,
                    {68460, 68436, 68464, 68428},
                    {2719552, 2586594, 2586156, 2579894},
                    {1250, 1250, 1250, 1250}};
  EXPECT_EQ(pin(r.search.metrics), want);
}

TEST(ScaleGolden, MultiBlockHbSearchLaunch) {
  gpusim::Device dev{small_cache_spec()};
  const auto keys = queries::make_tree_keys(20000, 3);
  std::vector<btree::Entry> entries;
  for (Key k : keys) entries.push_back({k, btree::value_for_key(k)});
  auto hb = hbtree::HBTreeIndex::build(dev, entries, 32);
  const auto batch =
      queries::make_queries(keys, kMultiBlockQueries, queries::Distribution::kUniform, 17);
  dev.trace().enable(1 << 20);
  const auto r = hb.search(batch);
  EXPECT_EQ(r.search.warps, kMultiBlockQueries);
  EXPECT_EQ(dev.trace().dropped(), 0u);
  EXPECT_EQ(dev.trace().events().size(), 90000u);
  EXPECT_EQ(trace_digest(dev.trace()), 7883826217886029831u);
  const Pinned want{5000, 40000, 0, 50000, 20000, 83886, 34329, 40173, 9384, 0,
                    {40000, 40000, 40000, 40000},
                    {3097898, 2991762, 3004432, 2981772},
                    {1250, 1250, 1250, 1250}};
  EXPECT_EQ(pin(r.search.metrics), want);
}

}  // namespace
}  // namespace harmonia
