// Pinned kernel outputs and counters: search_batch over every group size
// {1..32}, fanouts {16, 33, 64, 128}, early exit on and off, with and
// without a delta overlay, and range_batch with and without an overlay,
// must return the same values and count the same SIMT steps, chunk steps,
// loads, transactions, cache hits and per-SM cycles as the recorded rows.
// The HB+ baseline (HBTreeIndex::search: the same descend on the HB+
// layout, its fanout-based group, no early exit) is pinned the same way
// over the same fanouts. PSA-sorted batches, the issue order of every
// serving and figure path, are pinned at fanouts 33 and 64: there
// neighbouring groups share nodes, so a narrow group's chunk step reads
// the same address on many lanes.
// The rows are the simulator's behaviour, not a model of it: a change to
// the host cost of a warp access or of the kernels' chunk loops must leave
// every row byte-identical. When a row moves on purpose, the failure
// message prints the new table.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "btree/btree.hpp"
#include "common/rng.hpp"
#include "common/xxhash64.hpp"
#include "harmonia/index.hpp"
#include "harmonia/psa.hpp"
#include "harmonia/range.hpp"
#include "harmonia/search.hpp"
#include "hbtree/index.hpp"
#include "queries/batch.hpp"
#include "queries/workload.hpp"

namespace harmonia {
namespace {

gpusim::DeviceSpec test_spec() {
  auto spec = gpusim::titan_v();
  spec.num_sms = 4;
  spec.global_mem_bytes = 128 << 20;
  return spec;
}

struct Row {
  unsigned fanout;
  unsigned group_size;  // 0 for a range_batch row
  bool early_exit;
  bool overlay;
  std::uint64_t chunk_steps;  // search: SearchStats::chunk_steps; range: results
  std::uint64_t steps;
  std::uint64_t loads;
  std::uint64_t transactions;
  std::uint64_t dram_transactions;
  /// XXH64 of the output values (and range counts) and every
  /// KernelMetrics field, per-SM cycle vectors included.
  std::uint64_t digest;

  bool operator==(const Row&) const = default;
};

std::string format(const Row& r) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "    {%u, %u, %s, %s, %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", 0x%016" PRIx64 "ull},",
                r.fanout, r.group_size, r.early_exit ? "true" : "false",
                r.overlay ? "true" : "false", r.chunk_steps, r.steps, r.loads,
                r.transactions, r.dram_transactions, r.digest);
  return buf;
}

template <typename T>
void hash_all(Xxh64& h, const std::vector<T>& v) {
  h.update(v.data(), v.size() * sizeof(T));
}

void hash_metrics(Xxh64& h, const gpusim::KernelMetrics& m) {
  const std::array<std::uint64_t, 10> scalars{
      m.warps,         m.steps,          m.coherent_steps, m.loads,         m.divergent_loads,
      m.transactions,  m.dram_transactions, m.l2_hits,     m.readonly_hits, m.const_hits};
  h.update(scalars.data(), sizeof scalars);
  hash_all(h, m.sm_compute_cycles);
  hash_all(h, m.sm_mem_cycles);
  hash_all(h, m.sm_resident_warps);
}

Row make_row(unsigned fanout, unsigned gs, bool early_exit, bool overlay,
             std::uint64_t chunk_steps, const gpusim::KernelMetrics& m, Xxh64& h) {
  hash_metrics(h, m);
  return {fanout,  gs,      early_exit,     overlay,           chunk_steps,
          m.steps, m.loads, m.transactions, m.dram_transactions, h.digest()};
}

/// Runs every configuration for one fanout, first on the bulk-loaded
/// image and then after a patch epoch that leaves entries in the overlay.
void run_fanout(unsigned fanout, std::vector<Row>& rows) {
  gpusim::Device dev(test_spec());
  const std::vector<Key> keys = queries::make_tree_keys(3000, 1);
  std::vector<btree::Entry> entries;
  for (Key k : keys) entries.push_back({k, btree::value_for_key(k)});
  IndexOptions options;
  options.fanout = fanout;
  HarmoniaIndex index = HarmoniaIndex::build(dev, entries, options);
  index.set_overlay_capacity(256);

  // 60 inserts into one leaf's key span: more than its gaps hold, so the
  // rest go to the overlay.
  std::vector<Key> inserts;
  for (Key j = 1; j <= 60; ++j) inserts.push_back(keys[500] + j);

  // Half hits, half misses (16 of them keys the overlay will hold),
  // shuffled; 400 queries leave a partial warp at every group size.
  Xoshiro256 rng(fanout);
  std::vector<Key> qs;
  const std::vector<Key> missing = queries::make_missing_keys(keys, 184, 3);
  for (unsigned i = 0; i < 200; ++i) qs.push_back(keys[rng.next_below(keys.size())]);
  qs.insert(qs.end(), missing.begin(), missing.end());
  for (unsigned i = 0; i < 16; ++i) qs.push_back(inserts[i * 3 + 2]);
  for (std::size_t i = qs.size() - 1; i > 0; --i) std::swap(qs[i], qs[rng.next_below(i + 1)]);
  auto d_q = dev.memory().malloc<Key>(qs.size());
  dev.memory().copy_to_device(d_q, std::span<const Key>(qs));
  auto d_out = dev.memory().malloc<Value>(qs.size());

  constexpr unsigned kRanges = 48;
  constexpr unsigned kMaxResults = 40;
  std::vector<Key> los;
  std::vector<Key> his;
  for (unsigned i = 0; i < kRanges; ++i) {
    const Key lo = keys[1 + rng.next_below(keys.size() - 50)] - 1;
    los.push_back(lo);
    // Every fourth range runs to the end of the key space, capped by
    // max_results; the rest span about 40 keys.
    his.push_back(rng.next_below(4) == 0 ? keys.back() + 1 : lo + (keys[40] - keys[0]));
  }
  auto d_lo = dev.memory().malloc<Key>(kRanges);
  auto d_hi = dev.memory().malloc<Key>(kRanges);
  dev.memory().copy_to_device(d_lo, std::span<const Key>(los));
  dev.memory().copy_to_device(d_hi, std::span<const Key>(his));
  auto d_rv = dev.memory().malloc<Value>(kRanges * kMaxResults);
  auto d_rc = dev.memory().malloc<std::uint32_t>(kRanges);

  for (const bool overlay : {false, true}) {
    if (overlay) {
      std::vector<queries::UpdateOp> ops;
      for (const Key k : inserts) ops.push_back({queries::OpKind::kInsert, k, k * 3 + 1});
      for (unsigned i = 0; i < 30; ++i) {
        ops.push_back({queries::OpKind::kDelete, qs[i], 0});
        ops.push_back({queries::OpKind::kUpdate, keys[i * 7], 17 + i});
      }
      const auto patched = index.patch_update(ops);
      ASSERT_FALSE(patched.exhausted);
      index.commit_patch();
      ASSERT_GT(index.image().overlay.count, 0u);
    }
    for (unsigned gs = 1; gs <= 32; gs *= 2) {
      for (const bool early_exit : {true, false}) {
        dev.flush_caches();
        SearchConfig cfg;
        cfg.group_size = gs;
        cfg.early_exit = early_exit;
        const SearchStats st = search_batch(dev, index.image(), d_q, qs.size(), d_out, cfg);
        std::vector<Value> out(qs.size());
        dev.memory().copy_to_host(std::span<Value>(out), d_out);
        Xxh64 h;
        hash_all(h, out);
        rows.push_back(make_row(fanout, gs, early_exit, overlay, st.chunk_steps, st.metrics, h));
      }
    }
    dev.flush_caches();
    RangeConfig rcfg;
    rcfg.max_results = kMaxResults;
    const RangeStats rs =
        range_batch(dev, index.image(), d_lo, d_hi, kRanges, d_rv, d_rc, rcfg);
    std::vector<Value> rv(kRanges * kMaxResults);
    std::vector<std::uint32_t> rc(kRanges);
    dev.memory().copy_to_host(std::span<Value>(rv), d_rv);
    dev.memory().copy_to_host(std::span<std::uint32_t>(rc), d_rc);
    Xxh64 h;
    hash_all(h, rc);
    for (unsigned i = 0; i < kRanges; ++i) h.update(&rv[i * kMaxResults], rc[i] * sizeof(Value));
    rows.push_back(make_row(fanout, 0, false, overlay, rs.results, rs.metrics, h));
  }
}

/// Runs the HB+ search for one fanout (one row: its group size follows
/// the fanout). Its row counts hits in the chunk-steps column.
void run_hbtree(unsigned fanout, std::vector<Row>& rows) {
  gpusim::Device dev(test_spec());
  const std::vector<Key> keys = queries::make_tree_keys(3000, 1);
  hbtree::HBTreeIndex hb(dev, btree::make_tree(keys, fanout));

  // Half hits, half misses, shuffled; 400 queries leave a partial warp.
  Xoshiro256 rng(fanout);
  std::vector<Key> qs = queries::make_missing_keys(keys, 200, 3);
  for (unsigned i = 0; i < 200; ++i) qs.push_back(keys[rng.next_below(keys.size())]);
  for (std::size_t i = qs.size() - 1; i > 0; --i) std::swap(qs[i], qs[rng.next_below(i + 1)]);

  const HarmoniaIndex::QueryResult r = hb.search(qs);
  std::uint64_t hits = 0;
  for (const Value v : r.values) hits += v != kNotFound ? 1 : 0;
  Xxh64 h;
  hash_all(h, r.values);
  rows.push_back(make_row(fanout, std::min(std::bit_ceil(fanout), dev.spec().warp_size),
                          false, false, hits, r.search.metrics, h));
}

/// Runs search_batch over a PSA-sorted batch for one fanout, at group
/// sizes 1, 2, 4 and 32 with early exit on and off. The batch repeats
/// some keys, so equal targets sit side by side after the sort.
void run_sorted(unsigned fanout, std::vector<Row>& rows) {
  gpusim::Device dev(test_spec());
  const std::vector<Key> keys = queries::make_tree_keys(3000, 1);
  std::vector<btree::Entry> entries;
  for (Key k : keys) entries.push_back({k, btree::value_for_key(k)});
  IndexOptions options;
  options.fanout = fanout;
  HarmoniaIndex index = HarmoniaIndex::build(dev, entries, options);

  // 400 hits (50 of them twice), 200 misses; 650 queries leave a partial
  // warp at every group size.
  Xoshiro256 rng(fanout + 1000);
  std::vector<Key> qs = queries::make_missing_keys(keys, 200, 5);
  for (unsigned i = 0; i < 400; ++i) qs.push_back(keys[rng.next_below(keys.size())]);
  for (unsigned i = 0; i < 50; ++i) qs.push_back(qs[200 + i * 7]);
  for (std::size_t i = qs.size() - 1; i > 0; --i) std::swap(qs[i], qs[rng.next_below(i + 1)]);
  const PsaPlan plan = psa_prepare(qs, keys.size(), dev.spec(), PsaMode::kPartial);
  auto d_q = dev.memory().malloc<Key>(plan.queries.size());
  dev.memory().copy_to_device(d_q, std::span<const Key>(plan.queries));
  auto d_out = dev.memory().malloc<Value>(plan.queries.size());

  for (const unsigned gs : {1u, 2u, 4u, 32u}) {
    for (const bool early_exit : {true, false}) {
      dev.flush_caches();
      SearchConfig cfg;
      cfg.group_size = gs;
      cfg.early_exit = early_exit;
      const SearchStats st =
          search_batch(dev, index.image(), d_q, plan.queries.size(), d_out, cfg);
      std::vector<Value> out(plan.queries.size());
      dev.memory().copy_to_host(std::span<Value>(out), d_out);
      Xxh64 h;
      hash_all(h, out);
      rows.push_back(make_row(fanout, gs, early_exit, false, st.chunk_steps, st.metrics, h));
    }
  }
}

/// Compares `rows` with `pinned` row by row; a failure prints the table.
void expect_rows(const std::vector<Row>& rows, const std::vector<Row>& pinned) {
  std::string table;
  for (const Row& r : rows) table += format(r) + "\n";
  ASSERT_EQ(rows.size(), pinned.size()) << "current rows:\n" << table;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i], pinned[i]) << "row " << i << " now\n"
                                  << format(rows[i]) << "\nwas\n"
                                  << format(pinned[i]) << "\ncurrent rows:\n"
                                  << table;
  }
}

// {fanout, group size (0: range_batch), early exit, overlay, chunk steps
// (range: results), steps, loads, transactions, DRAM transactions, digest}
const std::vector<Row> kPinned = {
    {16, 1, true, false, 513, 565, 591, 4375, 441, 0xb35dcdfb0d4628ccull},
    {16, 1, false, false, 780, 832, 858, 9744, 477, 0xff435377211f5b8dull},
    {16, 2, true, false, 504, 604, 654, 3015, 444, 0x9bd16527f1da7607ull},
    {16, 2, false, false, 800, 900, 950, 6474, 477, 0xf33d816f28e551f9ull},
    {16, 4, true, false, 526, 726, 826, 2468, 448, 0xb453905dad0bce6full},
    {16, 4, false, false, 800, 1000, 1100, 4473, 477, 0x1a29bcde6d15a9dfull},
    {16, 8, true, false, 619, 1019, 1214, 2549, 458, 0xb191bc6f83361794ull},
    {16, 8, false, false, 800, 1200, 1395, 3497, 477, 0x952117a90b169541ull},
    {16, 16, true, false, 800, 1600, 1950, 3358, 477, 0x5dd1f1756ee86647ull},
    {16, 16, false, false, 800, 1600, 1950, 3358, 477, 0x5dd1f1756ee86647ull},
    {16, 32, true, false, 1600, 3200, 3800, 4898, 477, 0xeaa509f9ff2f5097ull},
    {16, 32, false, false, 1600, 3200, 3800, 4898, 477, 0xeaa509f9ff2f5097ull},
    {16, 0, false, false, 1915, 463, 781, 1366, 525, 0xcff4b33f50f703f9ull},
    {16, 1, true, true, 512, 663, 697, 4523, 442, 0x623daaaee4c1b91eull},
    {16, 1, false, true, 780, 931, 965, 9808, 478, 0xfdd97dc392c2af6bull},
    {16, 2, true, true, 503, 787, 845, 3307, 445, 0x8a8370caeb175536ull},
    {16, 2, false, true, 800, 1084, 1142, 6714, 478, 0x3214e894d8920e25ull},
    {16, 4, true, true, 525, 1069, 1176, 2977, 448, 0x52fd4d48c03aa105ull},
    {16, 4, false, true, 800, 1344, 1451, 4953, 478, 0xe99f6925e99b9da3ull},
    {16, 8, true, true, 616, 1639, 1839, 3375, 458, 0x74fb60e55dc52e34ull},
    {16, 8, false, true, 800, 1823, 2023, 4306, 478, 0x94cbd8b82c09f069ull},
    {16, 16, true, true, 800, 2764, 3116, 4753, 478, 0xe48d84f946e67cf9ull},
    {16, 16, false, true, 800, 2764, 3116, 4753, 478, 0xe48d84f946e67cf9ull},
    {16, 32, true, true, 1540, 5272, 5873, 6941, 478, 0x3584ea8e612c5aa4ull},
    {16, 32, false, true, 1540, 5272, 5873, 6941, 478, 0x3584ea8e612c5aa4ull},
    {16, 0, false, true, 1909, 727, 1046, 1638, 530, 0xc8c8d76d7400ea90ull},
    {33, 1, true, false, 677, 716, 742, 6434, 402, 0xa46029bfaa947148ull},
    {33, 1, false, false, 1248, 1287, 1313, 14606, 452, 0x385943a891d25989ull},
    {33, 2, true, false, 647, 722, 772, 4073, 402, 0xd52ed2066480f198ull},
    {33, 2, false, false, 1200, 1275, 1325, 9002, 452, 0x79f7ff1826a573c3ull},
    {33, 4, true, false, 667, 817, 917, 2792, 402, 0x90e0f2287e59f0bbull},
    {33, 4, false, false, 1200, 1350, 1450, 5751, 452, 0x5e83f6b3a9877ccdull},
    {33, 8, true, false, 664, 964, 1157, 2163, 402, 0x77f1439f49f60551ull},
    {33, 8, false, false, 1200, 1500, 1693, 3843, 452, 0x80e2295742f19fc2ull},
    {33, 16, true, false, 832, 1432, 1778, 2233, 402, 0x8ae722d10e1819a1ull},
    {33, 16, false, false, 1200, 1800, 2146, 2931, 452, 0x0204a68f33681349ull},
    {33, 32, true, false, 1200, 2400, 3000, 4200, 452, 0xdb96ebd1b0244d52ull},
    {33, 32, false, false, 1200, 2400, 3000, 4200, 452, 0xdb96ebd1b0244d52ull},
    {33, 0, false, false, 1914, 376, 701, 1098, 478, 0xe02a488dc13d6101ull},
    {33, 1, true, true, 672, 811, 845, 6492, 406, 0x7730add4a914f319ull},
    {33, 1, false, true, 1248, 1387, 1421, 14625, 456, 0x5b6f81cf98fb4113ull},
    {33, 2, true, true, 641, 899, 957, 4275, 406, 0xd1d1cc801e254e9eull},
    {33, 2, false, true, 1200, 1458, 1516, 9178, 456, 0xa2ea711ac015f099ull},
    {33, 4, true, true, 661, 1156, 1263, 3248, 406, 0x4f1892cf4e057ef0ull},
    {33, 4, false, true, 1200, 1695, 1802, 6176, 456, 0xe57c1da22b4442c5ull},
    {33, 8, true, true, 656, 1581, 1779, 2964, 406, 0xce9e196e1359720dull},
    {33, 8, false, true, 1200, 2125, 2323, 4627, 456, 0xb750d2d86582e293ull},
    {33, 16, true, true, 807, 2562, 2910, 3592, 406, 0x75de0623cae0f1e1ull},
    {33, 16, false, true, 1194, 2949, 3297, 4292, 456, 0x86430c9c4ee0c873ull},
    {33, 32, true, true, 1161, 4515, 5116, 6277, 456, 0x7b02ed35c0b8cc15ull},
    {33, 32, false, true, 1161, 4515, 5116, 6277, 456, 0x7b02ed35c0b8cc15ull},
    {33, 0, false, true, 1910, 632, 958, 1358, 485, 0x0ef142a13d136a91ull},
    {64, 1, true, false, 1024, 1063, 1089, 8874, 413, 0x2d0a8c009804fd2dull},
    {64, 1, false, false, 2457, 2496, 2522, 22760, 474, 0x6b778f3dc480b67bull},
    {64, 2, true, false, 968, 1043, 1093, 5681, 415, 0x10cca0047036de1eull},
    {64, 2, false, false, 2400, 2475, 2525, 14784, 474, 0xb2b07f17dce126eeull},
    {64, 4, true, false, 953, 1103, 1203, 4140, 425, 0x90f1a461683c5491ull},
    {64, 4, false, false, 2400, 2550, 2650, 10382, 474, 0xb9ba79d2a461907eull},
    {64, 8, true, false, 968, 1268, 1460, 3502, 436, 0x5387b6cba116e0b4ull},
    {64, 8, false, false, 2400, 2700, 2892, 8105, 474, 0x4ee714fbca021ba2ull},
    {64, 16, true, false, 1030, 1630, 1978, 3635, 453, 0x282cb26547536269ull},
    {64, 16, false, false, 2400, 3000, 3348, 7186, 474, 0x0c1902bc39651a84ull},
    {64, 32, true, false, 1320, 2520, 3120, 5325, 457, 0xe87da27e91d8439cull},
    {64, 32, false, false, 2400, 3600, 4200, 8130, 474, 0xd75f149bb9563156ull},
    {64, 0, false, false, 1910, 393, 721, 1400, 477, 0xb29b59c262682febull},
    {64, 1, true, true, 1069, 1206, 1238, 9035, 414, 0x4bab8d505111af84ull},
    {64, 1, false, true, 2457, 2594, 2626, 22794, 474, 0x1e81d20d052fb8bfull},
    {64, 2, true, true, 996, 1255, 1312, 5911, 416, 0xa555045213d4ccc3ull},
    {64, 2, false, true, 2400, 2659, 2716, 14891, 474, 0xffb64ffe89a5fb36ull},
    {64, 4, true, true, 971, 1470, 1575, 4614, 424, 0xb997b1dbd8249f48ull},
    {64, 4, false, true, 2400, 2899, 3004, 10747, 474, 0x5fba8b76971403d2ull},
    {64, 8, true, true, 980, 1910, 2106, 4344, 435, 0xecf2178fe5325df0ull},
    {64, 8, false, true, 2400, 3330, 3526, 8870, 474, 0x8db9055ec451b262ull},
    {64, 16, true, true, 1031, 2796, 3144, 5058, 452, 0x376266bb9f9788a1ull},
    {64, 16, false, true, 2400, 4165, 4513, 8545, 474, 0x360d055dc8114fb7ull},
    {64, 32, true, true, 1297, 4659, 5258, 7426, 456, 0x96e9fd29bbbd8e43ull},
    {64, 32, false, true, 2346, 5708, 6307, 10147, 474, 0xdfa7d8fd240663d4ull},
    {64, 0, false, true, 1903, 649, 977, 1654, 479, 0x5fa94a8c27cd0e7full},
    {128, 1, true, false, 1563, 1589, 1615, 14639, 387, 0xbed7b3db1222d446ull},
    {128, 1, false, false, 3302, 3328, 3354, 35309, 460, 0x4df04b4c1ad2e166ull},
    {128, 2, true, false, 1489, 1539, 1589, 9337, 388, 0xb18a07524fea03daull},
    {128, 2, false, false, 3200, 3250, 3300, 23939, 460, 0x807502c3c86de85cull},
    {128, 4, true, false, 1433, 1533, 1631, 6181, 394, 0xf0f23329fef90dc4ull},
    {128, 4, false, false, 3200, 3300, 3398, 15958, 460, 0xfd47e8727c9f4f0dull},
    {128, 8, true, false, 1329, 1529, 1721, 4495, 396, 0x8fc20c2d69e000a8ull},
    {128, 8, false, false, 3200, 3400, 3592, 11165, 460, 0x7e1fa13d27cc3a19ull},
    {128, 16, true, false, 1234, 1634, 1988, 3806, 405, 0xb8b79e6c7ac07f59ull},
    {128, 16, false, false, 3200, 3600, 3954, 8561, 460, 0xe719e18aaa0138f0ull},
    {128, 32, true, false, 1209, 2009, 2609, 4564, 414, 0x5df1adcd90a9cbd6ull},
    {128, 32, false, false, 3200, 4000, 4600, 9313, 460, 0x730048bcbf7d6404ull},
    {128, 0, false, false, 1913, 313, 633, 1202, 484, 0xbf7705f0aa2dc595ull},
    {128, 1, true, true, 1707, 1813, 1841, 14939, 384, 0x73d803f4e05b40ebull},
    {128, 1, false, true, 3302, 3408, 3436, 35426, 457, 0xe02bfdd82f07ee0bull},
    {128, 2, true, true, 1562, 1763, 1815, 9631, 386, 0xcdd65c62496d3aacull},
    {128, 2, false, true, 3200, 3401, 3453, 24098, 457, 0x65687245d6dc3455ull},
    {128, 4, true, true, 1476, 1863, 1961, 6629, 390, 0xc973cb9741fd24b3ull},
    {128, 4, false, true, 3200, 3587, 3685, 16291, 457, 0xe116924a64e713f4ull},
    {128, 8, true, true, 1361, 2079, 2269, 5213, 393, 0x4c9a46d5e0e105ecull},
    {128, 8, false, true, 3200, 3918, 4108, 11785, 457, 0x9909461fa053ced9ull},
    {128, 16, true, true, 1252, 2584, 2934, 4928, 403, 0xb331e1044ae10c59ull},
    {128, 16, false, true, 3200, 4532, 4882, 9619, 457, 0xe97583903d634feaull},
    {128, 32, true, true, 1216, 3761, 4362, 6334, 412, 0x5b593d03c6754f2full},
    {128, 32, false, true, 3176, 5721, 6322, 10999, 457, 0x10e7fba87f3c201cull},
    {128, 0, false, true, 1907, 528, 847, 1413, 483, 0xc666de1e3343fa34ull},
};

// The HB+ baseline, one row per fanout; the chunk-steps column counts
// hits.
const std::vector<Row> kPinnedHBTree = {
    {16, 16, false, false, 200, 1600, 1950, 3643, 574, 0x870d2b698f16b7c2ull},
    {33, 32, false, false, 200, 2400, 3000, 4976, 582, 0x26e5047307e7f663ull},
    {64, 32, false, false, 200, 3600, 4200, 8125, 543, 0x76a7319e5ad2faa9ull},
    {128, 32, false, false, 200, 4000, 4600, 9307, 492, 0x99a24973a6129b15ull},
};

TEST(KernelPin, SearchAndRangeCountersMatchRecordedRows) {
  std::vector<Row> rows;
  for (const unsigned fanout : {16u, 33u, 64u, 128u}) {
    run_fanout(fanout, rows);
    if (HasFatalFailure()) return;
  }
  for (const unsigned fanout : {16u, 33u, 64u, 128u}) run_hbtree(fanout, rows);
  std::vector<Row> pinned = kPinned;
  pinned.insert(pinned.end(), kPinnedHBTree.begin(), kPinnedHBTree.end());
  expect_rows(rows, pinned);
}

// PSA-sorted batches, {fanout, group size, early exit, overlay (always
// false), chunk steps, steps, loads, transactions, DRAM transactions,
// digest}.
const std::vector<Row> kPinnedSorted = {
    {33, 1, true, false, 908, 971, 1013, 3497, 536, 0x6a80587bb2d5c51bull},
    {33, 1, false, false, 2016, 2079, 2121, 6769, 568, 0x81a763e7480fdf74ull},
    {33, 2, true, false, 842, 965, 1047, 2227, 536, 0xb395f47fe4e87696ull},
    {33, 2, false, false, 1968, 2091, 2173, 4429, 568, 0xfa6e5bce8272eb1dull},
    {33, 4, true, false, 866, 1112, 1276, 1872, 536, 0x9330dd6984f31d5bull},
    {33, 4, false, false, 1968, 2214, 2378, 3517, 568, 0x4e1d8b70184e8948ull},
    {33, 32, true, false, 1950, 3900, 5000, 6950, 568, 0xb3fe390473dff55full},
    {33, 32, false, false, 1950, 3900, 5000, 6950, 568, 0xb3fe390473dff55full},
    {64, 1, true, false, 1353, 1416, 1458, 3818, 532, 0xc6cfd2769882b66full},
    {64, 1, false, false, 3969, 4032, 4074, 8393, 567, 0x34a9095bbf9fbb5eull},
    {64, 2, true, false, 1298, 1421, 1503, 2710, 533, 0xc67a9c21c7824a5cull},
    {64, 2, false, false, 3936, 4059, 4141, 6652, 567, 0xde8ffb5a0b63669cull},
    {64, 4, true, false, 1302, 1548, 1711, 2527, 537, 0xf54482807137c7b6ull},
    {64, 4, false, false, 3936, 4182, 4345, 6257, 567, 0x6b02b9aa4bcd8ae2ull},
    {64, 32, true, false, 2184, 4134, 5234, 8889, 561, 0xea828bf796e98a7eull},
    {64, 32, false, false, 3900, 5850, 6950, 13342, 567, 0x2251d4d31a97f707ull},
};

TEST(KernelPin, PsaSortedSearchCountersMatchRecordedRows) {
  std::vector<Row> rows;
  for (const unsigned fanout : {33u, 64u}) run_sorted(fanout, rows);
  expect_rows(rows, kPinnedSorted);
}

}  // namespace
}  // namespace harmonia
