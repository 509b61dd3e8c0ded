#include "gpusim/coalescer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "common/expect.hpp"
#include "common/rng.hpp"

namespace harmonia::gpusim {
namespace {

constexpr unsigned kLine = 128;

TEST(Coalescer, FullyCoalescedWarpLoad) {
  // 32 lanes reading consecutive u32s: 128 bytes = exactly one line.
  std::array<std::uint64_t, 32> addrs{};
  for (unsigned i = 0; i < 32; ++i) addrs[i] = 4096 + i * 4;
  const auto lines = coalesce(addrs, full_mask(32), 4, kLine);
  EXPECT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], 4096u / kLine);
}

TEST(Coalescer, ConsecutiveU64sNeedTwoLines) {
  std::array<std::uint64_t, 32> addrs{};
  for (unsigned i = 0; i < 32; ++i) addrs[i] = 0 + i * 8;  // 256 B
  EXPECT_EQ(coalesce(addrs, full_mask(32), 8, kLine).size(), 2u);
}

TEST(Coalescer, ScatteredAddressesOneLineEach) {
  std::array<std::uint64_t, 4> addrs{0, 10000, 20000, 30000};
  EXPECT_EQ(coalesce(addrs, full_mask(4), 8, kLine).size(), 4u);
}

TEST(Coalescer, InactiveLanesIgnored) {
  std::array<std::uint64_t, 4> addrs{0, 10000, 20000, 30000};
  const LaneMask mask = lane_bit(0) | lane_bit(2);
  EXPECT_EQ(coalesce(addrs, mask, 8, kLine).size(), 2u);
}

TEST(Coalescer, StraddlingAccessCountsBothLines) {
  std::array<std::uint64_t, 1> addrs{kLine - 4};  // 8 B crossing the boundary
  EXPECT_EQ(coalesce(addrs, full_mask(1), 8, kLine).size(), 2u);
}

TEST(Coalescer, DuplicateAddressesDeduplicate) {
  std::array<std::uint64_t, 8> addrs{};
  addrs.fill(512);  // broadcast load
  EXPECT_EQ(coalesce(addrs, full_mask(8), 8, kLine).size(), 1u);
}

TEST(Coalescer, ResultSorted) {
  std::array<std::uint64_t, 3> addrs{30000, 0, 20000};
  const auto lines = coalesce(addrs, full_mask(3), 8, kLine);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_LT(lines[0], lines[1]);
  EXPECT_LT(lines[1], lines[2]);
}

TEST(Coalescer, SameLineUnorderedStillOneTransaction) {
  // The §4.1.2 point: a partially-sorted group within one line coalesces
  // even though the addresses are not ascending.
  std::array<std::uint64_t, 4> addrs{1024 + 24, 1024, 1024 + 8, 1024 + 16};
  EXPECT_EQ(coalesce(addrs, full_mask(4), 8, kLine).size(), 1u);
}

// The preconditions that bound LineSet's fixed buffer are always on.
TEST(Coalescer, RejectsMoreThan32Lanes) {
  std::array<std::uint64_t, 33> addrs{};
  EXPECT_THROW(coalesce(addrs, full_mask(32), 8, kLine), ContractViolation);
}

TEST(Coalescer, RejectsZeroBytesPerLane) {
  std::array<std::uint64_t, 4> addrs{};
  EXPECT_THROW(coalesce(addrs, full_mask(4), 0, kLine), ContractViolation);
}

TEST(Coalescer, RejectsAccessWiderThanALine) {
  std::array<std::uint64_t, 4> addrs{};
  EXPECT_NO_THROW(coalesce(addrs, full_mask(4), kLine, kLine));
  EXPECT_THROW(coalesce(addrs, full_mask(4), kLine + 1, kLine), ContractViolation);
}

TEST(Coalescer, RejectsNonPowerOfTwoLine) {
  std::array<std::uint64_t, 4> addrs{};
  EXPECT_THROW(coalesce(addrs, full_mask(4), 8, 96), ContractViolation);
  EXPECT_THROW(coalesce(addrs, full_mask(4), 8, 0), ContractViolation);
}

TEST(Coalescer, EveryLaneStraddlingFillsTheBuffer) {
  // 32 lanes, each straddling its own pair of lines: the 64-line worst case.
  std::array<std::uint64_t, 32> addrs{};
  for (unsigned i = 0; i < 32; ++i) addrs[i] = (2 * i + 1) * kLine - 4;
  const auto lines = coalesce(addrs, full_mask(32), 8, kLine);
  ASSERT_EQ(lines.size(), LineSet::kCapacity);
  for (unsigned i = 0; i < lines.size(); ++i) EXPECT_EQ(lines[i], i);
}

// Differential check against the plain definition: every active lane's
// first and last line, sorted and deduplicated.
std::vector<std::uint64_t> reference_lines(std::span<const std::uint64_t> addrs,
                                           LaneMask active, unsigned bytes, unsigned line) {
  std::vector<std::uint64_t> out;
  for (unsigned lane = 0; lane < addrs.size(); ++lane) {
    if (!lane_active(active, lane)) continue;
    out.push_back(addrs[lane] / line);
    out.push_back((addrs[lane] + bytes - 1) / line);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void expect_matches_reference(std::span<const std::uint64_t> addrs, LaneMask active,
                              unsigned bytes, unsigned line) {
  const LineSet got = coalesce(addrs, active, bytes, line);
  const std::vector<std::uint64_t> want = reference_lines(addrs, active, bytes, line);
  ASSERT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()), want)
      << "lanes=" << addrs.size() << " mask=" << active << " bytes=" << bytes;
}

TEST(Coalescer, MatchesSortUniqueReferenceOnRandomAccesses) {
  Xoshiro256 rng(7);
  const std::array<unsigned, 4> widths{1, 4, 8, 16};
  for (int trial = 0; trial < 20000; ++trial) {
    const auto lanes = static_cast<unsigned>(rng.next() % 33);  // 0..32 addresses
    const unsigned bytes = widths[rng.next() % widths.size()];
    const auto active = static_cast<LaneMask>(rng.next());  // bits past `lanes` too
    std::array<std::uint64_t, 32> addrs{};
    const std::uint64_t base = (rng.next() % 4096) * 4;
    switch (trial % 5) {
      case 0:  // contiguous chunk, possibly straddling lines
        for (unsigned i = 0; i < lanes; ++i) addrs[i] = base + i * bytes;
        break;
      case 1:  // descending
        for (unsigned i = 0; i < lanes; ++i) addrs[i] = base + (lanes - i) * 40;
        break;
      case 2:  // two interleaved ascending streams
        for (unsigned i = 0; i < lanes; ++i)
          addrs[i] = (i % 2 == 0 ? base : base + 5000) + (i / 2) * bytes;
        break;
      case 3:  // scattered within a few lines: repeats and straddles
        for (unsigned i = 0; i < lanes; ++i) addrs[i] = base + rng.next() % (4 * kLine);
        break;
      default:  // scattered across memory
        for (unsigned i = 0; i < lanes; ++i) addrs[i] = rng.next() % (1u << 30);
        break;
    }
    expect_matches_reference(std::span(addrs.data(), lanes), active, bytes, kLine);
    expect_matches_reference(std::span(addrs.data(), lanes), active & 0x11111111u, bytes,
                             kLine);
  }
}

TEST(Coalescer, LineStraddlingLanesInEveryOrder) {
  // Lanes straddling a boundary next to lanes inside either line, in
  // ascending, descending and mixed order.
  const std::array<std::array<std::uint64_t, 4>, 3> patterns{{
      {kLine - 4, kLine + 8, 2 * kLine - 4, 2 * kLine + 8},
      {2 * kLine + 8, 2 * kLine - 4, kLine + 8, kLine - 4},
      {kLine + 8, kLine - 4, 2 * kLine + 8, 0},
  }};
  for (const auto& addrs : patterns) {
    for (LaneMask m = 0; m < 16; ++m) expect_matches_reference(addrs, m, 8, kLine);
  }
}

TEST(Coalescer, AllInactiveMaskTouchesNothing) {
  std::array<std::uint64_t, 32> addrs{};
  for (unsigned i = 0; i < 32; ++i) addrs[i] = i * 1000;
  EXPECT_TRUE(coalesce(addrs, 0, 8, kLine).empty());
  // Mask bits past the span's end are ignored.
  EXPECT_TRUE(coalesce(std::span(addrs.data(), 4), ~LaneMask{0} << 4, 8, kLine).empty());
  EXPECT_TRUE(coalesce(std::span(addrs.data(), 0), ~LaneMask{0}, 8, kLine).empty());
}

}  // namespace
}  // namespace harmonia::gpusim
