#include "gpusim/coalescer.hpp"

#include <gtest/gtest.h>

#include <array>

#include "common/expect.hpp"

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

}  // namespace
}  // namespace harmonia::gpusim
