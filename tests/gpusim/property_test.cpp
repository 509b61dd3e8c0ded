// Property-style tests of the simulator's invariants: coalescer algebra,
// LRU inclusion, metrics-merge algebra, cycle-model monotonicity.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/cache.hpp"
#include "gpusim/coalescer.hpp"
#include "gpusim/device.hpp"

namespace harmonia::gpusim {
namespace {

class CoalescerProperties : public ::testing::TestWithParam<std::uint64_t> {};

/// One-lane rows for the lanes of `mask`, lane i reading addrs[i].
std::vector<LaneRow> one_lane_rows(const std::array<std::uint64_t, 32>& addrs, LaneMask mask) {
  std::vector<LaneRow> rows;
  for (unsigned lane = 0; lane < 32; ++lane) {
    if (lane_active(mask, lane)) rows.push_back({addrs[lane], lane, 1});
  }
  return rows;
}

/// A random cut of lanes [0, lanes) into rows, one-lane rows one time in
/// four.
std::vector<LaneRow> random_rows(Xoshiro256& rng, unsigned lanes) {
  const bool one_lane = rng.next_below(4) == 0;
  std::vector<LaneRow> rows;
  for (unsigned lane = 0; lane < lanes;) {
    const auto count = one_lane ? 1u : static_cast<unsigned>(1 + rng.next_below(lanes - lane));
    rows.push_back({0, lane, count});
    lane += count;
  }
  return rows;
}

TEST_P(CoalescerProperties, TransactionCountBounds) {
  Xoshiro256 rng(GetParam());
  std::vector<LaneRow> rows = random_rows(rng, static_cast<unsigned>(1 + rng.next_below(32)));
  unsigned lanes = 0;
  for (LaneRow& r : rows) {
    r.addr = rng.next() % (1 << 24);
    lanes += r.count;
  }
  const unsigned bytes = 1u << rng.next_below(4);  // 1..8 B accesses
  const auto lines = coalesce(rows, bytes, 128);
  EXPECT_GE(lines.size(), 1u);
  // At most 2 lines per lane, and at most one more line than lanes per row.
  EXPECT_LE(lines.size(), 2u * lanes);
  EXPECT_LE(lines.size(), lanes + rows.size());
}

TEST_P(CoalescerProperties, PermutationInvariant) {
  // §4.1.2's key insight: coalescing depends on the *set* of addresses,
  // not their order across lanes.
  Xoshiro256 rng(GetParam() + 100);
  std::array<std::uint64_t, 32> addrs{};
  for (auto& a : addrs) a = rng.next() % (1 << 24);
  const auto before = coalesce(one_lane_rows(addrs, full_mask(32)), 8, 128).size();
  for (std::size_t i = 31; i > 0; --i) {
    std::swap(addrs[i], addrs[rng.next_below(i + 1)]);
  }
  EXPECT_EQ(coalesce(one_lane_rows(addrs, full_mask(32)), 8, 128).size(), before);
}

TEST_P(CoalescerProperties, SubsetNeverNeedsMore) {
  Xoshiro256 rng(GetParam() + 200);
  std::array<std::uint64_t, 32> addrs{};
  for (auto& a : addrs) a = rng.next() % (1 << 24);
  const LaneMask full = full_mask(32);
  const LaneMask sub = static_cast<LaneMask>(rng.next()) & full;
  if (sub == 0) return;
  EXPECT_LE(coalesce(one_lane_rows(addrs, sub), 8, 128).size(),
            coalesce(one_lane_rows(addrs, full), 8, 128).size());
}

TEST_P(CoalescerProperties, MatchesOrderedSetReference) {
  // Differential check of the fixed-capacity row coalescer against a
  // std::set: same lines, same (ascending) order, element by element,
  // and the rows' lanes as the mask. Random row lists of up to 32 lanes
  // in all: ascending, descending, overlapping and same-line rows, rows
  // straddling a line, one-lane rows, broadcast rows (every lane reads
  // one element) one time in four; element sizes 1-128 B.
  constexpr unsigned kLine = 128;
  Xoshiro256 rng(GetParam() + 300);
  for (int trial = 0; trial < 400; ++trial) {
    const auto bytes = static_cast<unsigned>(1 + rng.next_below(kLine));
    const std::uint64_t base = (1 + rng.next_below(1 << 16)) * kLine;
    const auto total = static_cast<unsigned>(1 + rng.next_below(32));
    std::vector<LaneRow> rows = random_rows(rng, total);
    const auto shape = rng.next_below(5);
    std::uint64_t next = base;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      LaneRow& r = rows[i];
      r.broadcast = rng.next_below(4) == 0;
      const std::uint64_t len = std::uint64_t{r.broadcast ? 1 : r.count} * bytes;
      switch (shape) {
        case 0:  // ascending, back to back: one chunk cut into rows
          r.addr = next;
          next += len;
          break;
        case 1:  // descending, a few lines apart
          r.addr = base + (rows.size() - i) * (len + 3 * kLine);
          break;
        case 2:  // overlapping byte ranges around a shared base
          r.addr = base + rng.next_below(2 * kLine);
          break;
        case 3:  // starting in one line: same-line rows, or straddling out
          r.addr = base + rng.next_below(kLine);
          break;
        default: {  // starts just below a line: straddles unless it starts one
          const std::uint64_t line_end = (1 + rng.next_below(1 << 20)) * kLine;
          r.addr = line_end - rng.next_below(std::min<std::uint64_t>(len, 64));
        }
      }
    }
    std::set<std::uint64_t> want;
    LaneMask lanes = 0;
    for (const LaneRow& r : rows) {
      const std::uint64_t len = std::uint64_t{r.broadcast ? 1 : r.count} * bytes;
      for (std::uint64_t a = r.addr; a < r.addr + len; ++a) want.insert(a / kLine);
      lanes |= group_mask(r.lane, r.count);
    }
    const auto got = coalesce(rows, bytes, kLine);
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "trial " << trial;
    ASSERT_EQ(got.lanes(), lanes) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoalescerProperties,
                         ::testing::Range<std::uint64_t>(1, 16));

class CacheProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CacheProperties, LruInclusion) {
  // LRU is a stack algorithm: with the same set count, a cache with more
  // ways never misses more on any trace.
  Xoshiro256 rng(GetParam());
  Cache small(64 * 128 * 2, 128, 2);  // 64 sets x 2 ways
  Cache large(64 * 128 * 8, 128, 8);  // 64 sets x 8 ways
  std::uint64_t small_misses = 0, large_misses = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t line = rng.next_below(1024);
    if (!small.access(line)) ++small_misses;
    if (!large.access(line)) ++large_misses;
  }
  EXPECT_LE(large_misses, small_misses);
}

TEST_P(CacheProperties, HitsPlusMissesEqualsAccesses) {
  // Every access is exactly one hit or one miss, and it hits exactly
  // when the line was resident before it.
  Xoshiro256 rng(GetParam() + 50);
  Cache cache(1 << 16, 128, 4);
  constexpr int kAccesses = 5000;
  std::uint64_t hits = 0, misses = 0;
  for (int i = 0; i < kAccesses; ++i) {
    const std::uint64_t line = rng.next_below(4096);
    const bool resident = cache.contains(line);
    const bool hit = cache.access(line);
    ASSERT_EQ(hit, resident) << "access " << i;
    ++(hit ? hits : misses);
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
  EXPECT_EQ(hits + misses, static_cast<std::uint64_t>(kAccesses));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheProperties, ::testing::Range<std::uint64_t>(1, 9));

TEST(MetricsProperties, MergeIsAssociativeOnCounters) {
  auto mk = [](std::uint64_t seed) {
    Xoshiro256 rng(seed);
    KernelMetrics m;
    m.warps = rng.next_below(100);
    m.steps = rng.next_below(1000);
    m.coherent_steps = rng.next_below(m.steps + 1);
    m.loads = rng.next_below(500);
    m.transactions = rng.next_below(2000);
    m.dram_transactions = rng.next_below(1000);
    m.sm_compute_cycles.assign(4, rng.next_below(10000));
    m.sm_mem_cycles.assign(4, rng.next_below(10000));
    m.sm_resident_warps.assign(4, rng.next_below(64));
    return m;
  };
  auto a1 = mk(1), b = mk(2), c = mk(3);
  auto bc = b;
  bc.merge(c);
  auto left = a1;
  left.merge(bc);  // a+(b+c)
  auto right = a1;
  right.merge(b);
  right.merge(c);  // (a+b)+c
  EXPECT_EQ(left.steps, right.steps);
  EXPECT_EQ(left.transactions, right.transactions);
  EXPECT_EQ(left.sm_compute_cycles, right.sm_compute_cycles);
}

TEST(CycleModelProperties, MoreWorkNeverFaster) {
  const DeviceSpec spec = titan_v();
  KernelMetrics m;
  m.sm_compute_cycles.assign(spec.num_sms, 1000);
  m.sm_mem_cycles.assign(spec.num_sms, 50000);
  m.sm_resident_warps.assign(spec.num_sms, 8);
  m.dram_transactions = 10000;
  const double base = m.elapsed_cycles(spec);

  auto more_compute = m;
  for (auto& c : more_compute.sm_compute_cycles) c *= 10;
  EXPECT_GE(more_compute.elapsed_cycles(spec), base);

  auto more_dram = m;
  more_dram.dram_transactions *= 100;
  EXPECT_GE(more_dram.elapsed_cycles(spec), base);

  auto more_latency = m;
  for (auto& c : more_latency.sm_mem_cycles) c *= 10;
  EXPECT_GE(more_latency.elapsed_cycles(spec), base);
}

TEST(CycleModelProperties, ThroughputScalesWithClock) {
  DeviceSpec slow = titan_v();
  DeviceSpec fast = titan_v();
  fast.clock_ghz = slow.clock_ghz * 2.0;
  KernelMetrics m;
  m.sm_compute_cycles.assign(slow.num_sms, 100000);
  m.sm_mem_cycles.assign(slow.num_sms, 0);
  m.sm_resident_warps.assign(slow.num_sms, 1);
  EXPECT_NEAR(m.throughput(fast, 1000) / m.throughput(slow, 1000), 2.0, 1e-9);
}

TEST(DeviceProperties, LaunchDeterministic) {
  auto spec = titan_v();
  spec.num_sms = 4;
  spec.global_mem_bytes = 32 << 20;

  auto run = [&] {
    Device dev(spec);
    auto data = dev.memory().malloc<std::uint64_t>(1 << 12);
    return dev.launch(64, [&](WarpCtx& w) {
      std::array<LaneRow, 32> rows{};
      Xoshiro256 rng(w.warp_id());
      for (unsigned i = 0; i < 32; ++i) {
        rows[i] = {data.element_addr(rng.next_below(1 << 12)), i, 1};
      }
      w.touch(rows, 8);
      w.compute(full_mask(32), 3);
    });
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.dram_transactions, b.dram_transactions);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_DOUBLE_EQ(a.elapsed_cycles(spec), b.elapsed_cycles(spec));
}

}  // namespace
}  // namespace harmonia::gpusim
