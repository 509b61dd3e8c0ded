// Per-warp memory coalescing: groups the byte ranges a warp access reads
// into the minimal set of cache-line transactions, exactly as the hardware
// memory controller does for a warp-wide load (CUDA programming guide,
// "coalesced access": addresses falling in one line are served by a
// single transaction).
//
// An access is a list of rows. A row is a run of lanes reading
// consecutive elements, the shape of a thread group's chunk scan over a
// node's key region (paper §3.1); a scattered access is one-lane rows.
// A broadcast row is a run of lanes all reading one element: neighbouring
// one-lane groups on the same node. A row's lines are worked out from its
// first and last byte, not lane by lane.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "gpusim/lane_mask.hpp"

namespace harmonia::gpusim {

/// One row of a warp access: lanes [lane, lane + count) access
/// consecutive elements, lane `lane + i` the one at addr + i * element
/// size. A broadcast row's lanes all read the one element at addr; it
/// costs what `count` one-lane rows at addr cost, and stores reject it.
struct LaneRow {
  std::uint64_t addr;
  unsigned lane;
  unsigned count;
  bool broadcast = false;
};

/// Appends `r` to rows[0, n) and returns the new row count. A one-lane
/// row reading the element of the row before it, on the lane right after
/// that row's lanes, joins it as a broadcast row instead.
inline unsigned push_row(std::array<LaneRow, 32>& rows, unsigned n, const LaneRow& r) {
  if (r.count == 1 && n != 0) {
    LaneRow& prev = rows[n - 1];
    if (prev.addr == r.addr && prev.lane + prev.count == r.lane &&
        (prev.count == 1 || prev.broadcast)) {
      ++prev.count;
      prev.broadcast = true;
      return n;
    }
  }
  rows[n] = r;
  return n + 1;
}

/// The rows of `n` lanes spaced `stride` apart (lanes 0, stride,
/// 2 * stride, ...), lane i * stride accessing the element at
/// addr + i * elem_bytes: each thread group's leader lane loading or
/// storing consecutive per-group elements. One row when stride is 1,
/// else n one-lane rows. Writes the rows to `rows` and returns them.
inline std::span<const LaneRow> leader_rows(std::uint64_t addr, unsigned elem_bytes,
                                            unsigned n, unsigned stride,
                                            std::array<LaneRow, 32>& rows) {
  if (stride == 1) {
    rows[0] = {addr, 0, n};
    return {rows.data(), 1};
  }
  for (unsigned i = 0; i < n; ++i) {
    rows[i] = {addr + std::uint64_t{i} * elem_bytes, i * stride, 1};
  }
  return {rows.data(), n};
}

/// The distinct line addresses one warp access touches, sorted ascending,
/// and the lanes it covers. Fixed capacity, no heap: a row of c lanes
/// touches at most c + 1 lines, so 32 lanes in at most 32 rows need at
/// most 64 slots. The order is part of the simulation — the caches are
/// probed in it, and LRU state depends on it.
class LineSet {
 public:
  static constexpr std::size_t kCapacity = 64;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::uint64_t operator[](std::size_t i) const { return lines_[i]; }
  const std::uint64_t* begin() const { return lines_.data(); }
  const std::uint64_t* end() const { return lines_.data() + size_; }
  /// The lanes the rows cover: the access's active mask.
  LaneMask lanes() const { return lanes_; }

 private:
  friend LineSet coalesce(std::span<const LaneRow>, unsigned, unsigned);

  // Only [0, size_) is written: no zero-fill on every warp access.
  std::array<std::uint64_t, kCapacity> lines_;
  std::size_t size_ = 0;
  LaneMask lanes_ = 0;
};

/// Computes the distinct line addresses (addr / line_bytes) the rows
/// touch, each lane reading `elem_bytes` (a broadcast row's lanes the
/// same ones); an element straddling a line boundary contributes both
/// lines. The lines come out in row order, and
/// are sorted and deduplicated only when that order goes down, so the
/// result is sorted and distinct; its size is the transaction count.
/// Preconditions, checked in every build (a violation throws
/// ContractViolation): line_bytes a power of two, 0 < elem_bytes <=
/// line_bytes, and the rows nonempty, within the 32 lanes and covering
/// each lane at most once (so at most 32 rows).
LineSet coalesce(std::span<const LaneRow> rows, unsigned elem_bytes, unsigned line_bytes);

}  // namespace harmonia::gpusim
