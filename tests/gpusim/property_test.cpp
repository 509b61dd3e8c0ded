// Property-style tests of the simulator's invariants: coalescer algebra,
// LRU inclusion, metrics-merge algebra, cycle-model monotonicity.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>

#include "common/rng.hpp"
#include "gpusim/cache.hpp"
#include "gpusim/coalescer.hpp"
#include "gpusim/device.hpp"

namespace harmonia::gpusim {
namespace {

class CoalescerProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoalescerProperties, TransactionCountBounds) {
  Xoshiro256 rng(GetParam());
  std::array<std::uint64_t, 32> addrs{};
  for (auto& a : addrs) a = rng.next() % (1 << 24);
  const LaneMask mask = static_cast<LaneMask>(rng.next());
  if (mask == 0) return;
  const unsigned bytes = 1u << rng.next_below(4);  // 1..8 B accesses
  const auto lines = coalesce(addrs, mask, bytes, 128);
  EXPECT_GE(lines.size(), 1u);
  // An aligned-or-straddling access touches at most 2 lines per lane.
  EXPECT_LE(lines.size(), 2u * active_count(mask));
}

TEST_P(CoalescerProperties, PermutationInvariant) {
  // §4.1.2's key insight: coalescing depends on the *set* of addresses,
  // not their order across lanes.
  Xoshiro256 rng(GetParam() + 100);
  std::array<std::uint64_t, 32> addrs{};
  for (auto& a : addrs) a = rng.next() % (1 << 24);
  const auto before = coalesce(addrs, full_mask(32), 8, 128).size();
  for (std::size_t i = 31; i > 0; --i) {
    std::swap(addrs[i], addrs[rng.next_below(i + 1)]);
  }
  EXPECT_EQ(coalesce(addrs, full_mask(32), 8, 128).size(), before);
}

TEST_P(CoalescerProperties, SubsetNeverNeedsMore) {
  Xoshiro256 rng(GetParam() + 200);
  std::array<std::uint64_t, 32> addrs{};
  for (auto& a : addrs) a = rng.next() % (1 << 24);
  const LaneMask full = full_mask(32);
  const LaneMask sub = static_cast<LaneMask>(rng.next()) & full;
  if (sub == 0) return;
  EXPECT_LE(coalesce(addrs, sub, 8, 128).size(), coalesce(addrs, full, 8, 128).size());
}

TEST_P(CoalescerProperties, MatchesOrderedSetReference) {
  // Differential check of the fixed-capacity coalescer against a
  // std::set: same lines, same (ascending) order, element by element.
  // Lane counts 1-32, masks with bits above the lane count, widths
  // 1-128 B, and a mix of straddling, clustered and scattered addresses.
  constexpr unsigned kLine = 128;
  Xoshiro256 rng(GetParam() + 300);
  for (int trial = 0; trial < 400; ++trial) {
    const auto lanes = static_cast<std::size_t>(1 + rng.next_below(32));
    const auto bytes = static_cast<unsigned>(1 + rng.next_below(kLine));
    const std::uint64_t cluster = rng.next_below(1 << 16) * kLine;
    std::array<std::uint64_t, 32> addrs{};
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::uint64_t line_start = rng.next_below(1 << 20) * kLine;
      switch (rng.next_below(3)) {
        case 0:  // ends past the line: straddles unless it starts the next one
          addrs[l] = line_start + kLine - rng.next_below(bytes);
          break;
        case 1:  // within a few lines of a shared base
          addrs[l] = cluster + rng.next_below(4 * kLine);
          break;
        default:
          addrs[l] = line_start + rng.next_below(kLine);
      }
    }
    const auto mask = static_cast<LaneMask>(rng.next());
    std::set<std::uint64_t> want;
    for (std::size_t l = 0; l < lanes; ++l) {
      if (!lane_active(mask, static_cast<unsigned>(l))) continue;
      for (std::uint64_t a = addrs[l]; a < addrs[l] + bytes; ++a) want.insert(a / kLine);
    }
    const auto got = coalesce(std::span(addrs.data(), lanes), mask, bytes, kLine);
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "trial " << trial;
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
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t line = rng.next_below(1024);
    small.access(line);
    large.access(line);
  }
  EXPECT_LE(large.misses(), small.misses());
}

TEST_P(CacheProperties, HitsPlusMissesEqualsAccesses) {
  Xoshiro256 rng(GetParam() + 50);
  Cache cache(1 << 16, 128, 4);
  constexpr int kAccesses = 5000;
  for (int i = 0; i < kAccesses; ++i) cache.access(rng.next_below(4096));
  EXPECT_EQ(cache.hits() + cache.misses(), static_cast<std::uint64_t>(kAccesses));
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
      std::array<std::uint64_t, 32> addrs{};
      Xoshiro256 rng(w.warp_id());
      for (unsigned i = 0; i < 32; ++i) {
        addrs[i] = data.element_addr(rng.next_below(1 << 12));
      }
      w.touch(full_mask(32), addrs, 8);
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
