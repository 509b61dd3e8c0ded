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
  for (unsigned lane = 0; lane < addrs.size(); ++lane) {
    if (!lane_active(active, lane)) continue;
    const std::uint64_t first = addrs[lane] >> shift;
    const std::uint64_t last = (addrs[lane] + bytes_per_lane - 1) >> shift;
    // Neighbouring lanes usually share a line; skipping the repeat keeps
    // the sort short without changing the result.
    if (n == 0 || lines[n - 1] != first) lines[n++] = first;
    if (last != first) lines[n++] = last;
  }
  std::sort(lines, lines + n);
  set.size_ = static_cast<std::size_t>(std::unique(lines, lines + n) - lines);
  return set;
}

}  // namespace harmonia::gpusim
