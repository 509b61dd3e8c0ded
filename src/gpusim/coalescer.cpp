#include "gpusim/coalescer.hpp"

#include <algorithm>
#include <bit>

#include "common/expect.hpp"

namespace harmonia::gpusim {

LineSet coalesce(std::span<const std::uint64_t> addrs, LaneMask active, unsigned bytes_per_lane,
                 unsigned line_bytes) {
  // These bound the fixed buffer (at most 2 lines per lane, 32 lanes), so
  // they stay on in release builds.
  HARMONIA_CHECK(addrs.size() <= 32);
  HARMONIA_CHECK(std::has_single_bit(line_bytes));
  HARMONIA_CHECK(bytes_per_lane > 0 && bytes_per_lane <= line_bytes);
  const int shift = std::countr_zero(line_bytes);

  LineSet set;
  std::uint64_t* lines = set.lines_.data();
  std::size_t n = 0;
  // Only the active lanes are visited. The last pushed line stays in a
  // register: neighbouring lanes usually share it, and while every new
  // line is above it the buffer is already sorted and distinct.
  LaneMask rest = lanes_within(active, addrs.size());
  std::uint64_t prev = 0;
  bool ascending = true;
  while (rest != 0) {
    const auto lane = static_cast<unsigned>(std::countr_zero(rest));
    rest &= rest - 1;
    const std::uint64_t first = addrs[lane] >> shift;
    const std::uint64_t last = (addrs[lane] + bytes_per_lane - 1) >> shift;
    if (n == 0 || first != prev) {
      if (n != 0 && first < prev) ascending = false;
      lines[n++] = first;
    }
    if (last != first) lines[n++] = last;
    prev = last;
  }
  // Contiguous chunk gathers and one-lane loads come out ascending; only
  // scattered lanes pay for the sort.
  if (!ascending) {
    std::sort(lines, lines + n);
    n = static_cast<std::size_t>(std::unique(lines, lines + n) - lines);
  }
  set.size_ = n;
  return set;
}

}  // namespace harmonia::gpusim
