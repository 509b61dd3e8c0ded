#include "gpusim/coalescer.hpp"

#include <algorithm>
#include <bit>

#include "common/expect.hpp"

namespace harmonia::gpusim {

LineSet coalesce(std::span<const LaneRow> rows, unsigned elem_bytes, unsigned line_bytes) {
  HARMONIA_CHECK(std::has_single_bit(line_bytes));
  HARMONIA_CHECK(elem_bytes > 0 && elem_bytes <= line_bytes);
  const int shift = std::countr_zero(line_bytes);

  LineSet set;
  std::uint64_t* lines = set.lines_.data();
  std::size_t n = 0;
  // A row's lines are [first, last], in order. The last pushed line stays
  // in a register: neighbouring rows often share it, and while every new
  // line is above it the buffer is already sorted and distinct.
  std::uint64_t prev = 0;
  bool ascending = true;
  LaneMask lanes = 0;
  bool valid = true;
  for (const LaneRow& r : rows) {
    // Nonempty, inside the warp and on lanes no earlier row covers: the
    // rows then hold at most 32 lanes, and a row of c lanes touches at
    // most c + 1 lines, so the 64-line buffer cannot overflow.
    if (r.count == 0 || std::uint64_t{r.lane} + r.count > 32) {
      valid = false;
      break;
    }
    const auto bits = static_cast<LaneMask>(((std::uint64_t{1} << r.count) - 1) << r.lane);
    if ((lanes & bits) != 0) {
      valid = false;
      break;
    }
    lanes |= bits;

    std::uint64_t line = r.addr >> shift;
    const std::uint64_t elems = r.broadcast ? 1 : r.count;
    const std::uint64_t last = (r.addr + elems * elem_bytes - 1) >> shift;
    if (n != 0) {
      if (line == prev) {
        ++line;
      } else if (line < prev) {
        ascending = false;
      }
    }
    for (; line <= last; ++line) lines[n++] = line;
    prev = last;
  }
  // On in release builds too: it guards the fixed buffer.
  HARMONIA_CHECK_MSG(valid, "a warp access covers more than 32 lanes, or a lane twice");
  set.lanes_ = lanes;
  // Chunk rows and ascending leader loads come out sorted; only scattered
  // rows pay for the sort.
  if (!ascending) {
    std::sort(lines, lines + n);
    n = static_cast<std::size_t>(std::unique(lines, lines + n) - lines);
  }
  set.size_ = n;
  return set;
}

}  // namespace harmonia::gpusim
