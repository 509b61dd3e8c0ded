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

/// One-lane rows for lanes [0, addrs.size()): a scattered access.
std::vector<LaneRow> one_lane_rows(std::span<const std::uint64_t> addrs) {
  std::vector<LaneRow> rows;
  for (unsigned lane = 0; lane < addrs.size(); ++lane) rows.push_back({addrs[lane], lane, 1});
  return rows;
}

TEST(Coalescer, FullyCoalescedWarpLoad) {
  // 32 lanes reading consecutive u32s: 128 bytes = exactly one line.
  const std::array<LaneRow, 1> rows{{{4096, 0, 32}}};
  const auto lines = coalesce(rows, 4, kLine);
  EXPECT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], 4096u / kLine);
  EXPECT_EQ(lines.lanes(), full_mask(32));
}

TEST(Coalescer, ConsecutiveU64sNeedTwoLines) {
  const std::array<LaneRow, 1> rows{{{0, 0, 32}}};  // 256 B
  EXPECT_EQ(coalesce(rows, 8, kLine).size(), 2u);
}

TEST(Coalescer, ScatteredAddressesOneLineEach) {
  const std::array<std::uint64_t, 4> addrs{0, 10000, 20000, 30000};
  EXPECT_EQ(coalesce(one_lane_rows(addrs), 8, kLine).size(), 4u);
}

TEST(Coalescer, InactiveLanesIgnored) {
  // Lanes 0 and 2 of a scattered access; lanes 1 and 3 are not in it.
  const std::array<LaneRow, 2> rows{{{0, 0, 1}, {20000, 2, 1}}};
  const auto lines = coalesce(rows, 8, kLine);
  EXPECT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines.lanes(), lane_bit(0) | lane_bit(2));
}

TEST(Coalescer, StraddlingAccessCountsBothLines) {
  const std::array<LaneRow, 1> rows{{{kLine - 4, 0, 1}}};  // 8 B crossing the boundary
  EXPECT_EQ(coalesce(rows, 8, kLine).size(), 2u);
}

TEST(Coalescer, DuplicateAddressesDeduplicate) {
  std::array<std::uint64_t, 8> addrs{};
  addrs.fill(512);  // broadcast load
  EXPECT_EQ(coalesce(one_lane_rows(addrs), 8, kLine).size(), 1u);
}

TEST(Coalescer, ResultSorted) {
  const std::array<std::uint64_t, 3> addrs{30000, 0, 20000};
  const auto lines = coalesce(one_lane_rows(addrs), 8, kLine);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_LT(lines[0], lines[1]);
  EXPECT_LT(lines[1], lines[2]);
}

TEST(Coalescer, SameLineUnorderedStillOneTransaction) {
  // The §4.1.2 point: a partially-sorted group within one line coalesces
  // even though the addresses are not ascending.
  const std::array<std::uint64_t, 4> addrs{1024 + 24, 1024, 1024 + 8, 1024 + 16};
  EXPECT_EQ(coalesce(one_lane_rows(addrs), 8, kLine).size(), 1u);
}

TEST(Coalescer, BroadcastRowEqualsOneLaneRows) {
  // A broadcast row of c lanes has the lines and lanes of c one-lane rows
  // at its address: inside a line, straddling one, after rows above and
  // below it, at every element size.
  const std::array<std::uint64_t, 4> addrs{512, kLine - 4, 3 * kLine + 40, 2 * kLine - 1};
  for (const unsigned bytes : {1u, 4u, 8u, 16u}) {
    for (const std::uint64_t addr : addrs) {
      for (const unsigned count : {1u, 2u, 7u, 30u}) {
        const std::array<LaneRow, 2> neighbours{{{addr + 5 * kLine, 0, 1}, {addr / 2, 31, 1}}};
        for (const unsigned with : {0u, 1u, 2u}) {
          std::vector<LaneRow> broadcast(neighbours.begin(), neighbours.begin() + with);
          std::vector<LaneRow> one_lane = broadcast;
          broadcast.push_back({addr, 1, count, true});
          for (unsigned i = 0; i < count; ++i) one_lane.push_back({addr, 1 + i, 1});
          const LineSet got = coalesce(broadcast, bytes, kLine);
          const LineSet want = coalesce(one_lane, bytes, kLine);
          ASSERT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()),
                    std::vector<std::uint64_t>(want.begin(), want.end()))
              << "addr=" << addr << " count=" << count << " bytes=" << bytes;
          ASSERT_EQ(got.lanes(), want.lanes());
        }
      }
    }
  }
}

TEST(Coalescer, PushRowJoinsNeighbouringLanesAtOneAddress) {
  std::array<LaneRow, 32> rows{};
  unsigned n = 0;
  n = push_row(rows, n, {64, 0, 1});
  n = push_row(rows, n, {64, 1, 1});
  n = push_row(rows, n, {64, 2, 1});
  n = push_row(rows, n, {72, 3, 1});  // another address: a new row
  n = push_row(rows, n, {72, 5, 1});  // not the next lane: a new row
  n = push_row(rows, n, {72, 6, 8});  // a chunk row never joins
  n = push_row(rows, n, {72, 14, 1});  // nor does a lane after a chunk row
  ASSERT_EQ(n, 5u);
  EXPECT_EQ(rows[0].addr, 64u);
  EXPECT_EQ(rows[0].lane, 0u);
  EXPECT_EQ(rows[0].count, 3u);
  EXPECT_TRUE(rows[0].broadcast);
  EXPECT_FALSE(rows[1].broadcast);
  EXPECT_EQ(rows[2].lane, 5u);
  EXPECT_FALSE(rows[3].broadcast);
  EXPECT_EQ(rows[3].count, 8u);
  EXPECT_EQ(rows[4].lane, 14u);
}

// The preconditions that bound LineSet's fixed buffer are always on.
TEST(Coalescer, RejectsMoreThan32Lanes) {
  const std::array<LaneRow, 1> wide{{{0, 0, 33}}};
  EXPECT_THROW(coalesce(wide, 8, kLine), ContractViolation);
  const std::array<LaneRow, 2> split{{{0, 0, 20}, {4096, 20, 13}}};
  EXPECT_THROW(coalesce(split, 8, kLine), ContractViolation);
  const std::array<LaneRow, 1> past_the_warp{{{0, 31, 2}}};
  EXPECT_THROW(coalesce(past_the_warp, 8, kLine), ContractViolation);
  const std::array<LaneRow, 1> lane_out_of_range{{{0, 32, 1}}};
  EXPECT_THROW(coalesce(lane_out_of_range, 8, kLine), ContractViolation);
}

TEST(Coalescer, RejectsMoreThan32Rows) {
  std::vector<LaneRow> rows;
  for (unsigned lane = 0; lane < 32; ++lane) rows.push_back({lane * 4096ull, lane, 1});
  EXPECT_NO_THROW(coalesce(rows, 8, kLine));
  rows.push_back({1 << 20, 0, 1});  // a 33rd row must reuse a lane
  EXPECT_THROW(coalesce(rows, 8, kLine), ContractViolation);
}

TEST(Coalescer, RejectsALaneInTwoRowsAndEmptyRows) {
  const std::array<LaneRow, 2> overlap{{{0, 0, 4}, {4096, 3, 2}}};
  EXPECT_THROW(coalesce(overlap, 8, kLine), ContractViolation);
  const std::array<LaneRow, 2> broadcast_overlap{{{0, 0, 4, true}, {0, 3, 1}}};
  EXPECT_THROW(coalesce(broadcast_overlap, 8, kLine), ContractViolation);
  const std::array<LaneRow, 1> wide_broadcast{{{0, 0, 33, true}}};
  EXPECT_THROW(coalesce(wide_broadcast, 8, kLine), ContractViolation);
  const std::array<LaneRow, 1> empty{{{0, 0, 0}}};
  EXPECT_THROW(coalesce(empty, 8, kLine), ContractViolation);
}

TEST(Coalescer, RejectsZeroBytesPerLane) {
  const std::array<LaneRow, 1> rows{{{0, 0, 4}}};
  EXPECT_THROW(coalesce(rows, 0, kLine), ContractViolation);
}

TEST(Coalescer, RejectsAccessWiderThanALine) {
  const std::array<LaneRow, 1> rows{{{0, 0, 4}}};
  EXPECT_NO_THROW(coalesce(rows, kLine, kLine));
  EXPECT_THROW(coalesce(rows, kLine + 1, kLine), ContractViolation);
}

TEST(Coalescer, RejectsNonPowerOfTwoLine) {
  const std::array<LaneRow, 1> rows{{{0, 0, 4}}};
  EXPECT_THROW(coalesce(rows, 8, 96), ContractViolation);
  EXPECT_THROW(coalesce(rows, 8, 0), ContractViolation);
}

TEST(Coalescer, EveryLaneStraddlingFillsTheBuffer) {
  // 32 lanes, each straddling its own pair of lines: the 64-line worst case.
  std::array<std::uint64_t, 32> addrs{};
  for (unsigned i = 0; i < 32; ++i) addrs[i] = (2 * i + 1) * kLine - 4;
  const auto lines = coalesce(one_lane_rows(addrs), 8, kLine);
  ASSERT_EQ(lines.size(), LineSet::kCapacity);
  for (unsigned i = 0; i < lines.size(); ++i) EXPECT_EQ(lines[i], i);
}

TEST(Coalescer, WideRowsFillTheBuffer) {
  // Two misaligned 16-lane rows of line-sized elements: 17 lines each,
  // 34 in all, the bound a row's c lanes + 1 gives.
  const std::array<LaneRow, 2> rows{{{8, 0, 16}, {100 * kLine + 8, 16, 16}}};
  const auto lines = coalesce(rows, kLine, kLine);
  ASSERT_EQ(lines.size(), 34u);
  for (unsigned i = 0; i < 17; ++i) {
    EXPECT_EQ(lines[i], i);
    EXPECT_EQ(lines[17 + i], 100 + i);
  }
}

TEST(Coalescer, AllInactiveMaskTouchesNothing) {
  // An access with no rows covers no lane.
  const auto lines = coalesce(std::span<const LaneRow>(), 8, kLine);
  EXPECT_TRUE(lines.empty());
  EXPECT_EQ(lines.lanes(), 0u);
}

// Differential check against the per-lane definition: every active
// lane's first and last line, sorted and deduplicated.
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

/// The active lanes as rows: a lane joins the row before it when it is
/// the next lane and reads the next element, as a kernel's chunk does.
std::vector<LaneRow> rows_of(std::span<const std::uint64_t> addrs, LaneMask active,
                             unsigned bytes) {
  std::vector<LaneRow> rows;
  for (unsigned lane = 0; lane < addrs.size(); ++lane) {
    if (!lane_active(active, lane)) continue;
    if (!rows.empty()) {
      LaneRow& r = rows.back();
      const std::uint64_t next = r.addr + std::uint64_t{r.count} * bytes;
      if (r.lane + r.count == lane && next == addrs[lane]) {
        ++r.count;
        continue;
      }
    }
    rows.push_back({addrs[lane], lane, 1});
  }
  return rows;
}

void expect_matches_reference(std::span<const std::uint64_t> addrs, LaneMask active,
                              unsigned bytes, unsigned line) {
  const LineSet got = coalesce(rows_of(addrs, active, bytes), bytes, line);
  const std::vector<std::uint64_t> want = reference_lines(addrs, active, bytes, line);
  ASSERT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()), want)
      << "lanes=" << addrs.size() << " mask=" << active << " bytes=" << bytes;
  ASSERT_EQ(got.lanes(), active);
}

TEST(Coalescer, MatchesSortUniqueReferenceOnRandomAccesses) {
  Xoshiro256 rng(7);
  const std::array<unsigned, 4> widths{1, 4, 8, 16};
  for (int trial = 0; trial < 20000; ++trial) {
    const auto lanes = static_cast<unsigned>(rng.next() % 33);  // 0..32 lanes
    const unsigned bytes = widths[rng.next() % widths.size()];
    // Active lanes among the first `lanes`.
    const auto bits = static_cast<LaneMask>(rng.next());
    const LaneMask active = lanes == 0 ? 0 : bits & full_mask(lanes);
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

}  // namespace
}  // namespace harmonia::gpusim
