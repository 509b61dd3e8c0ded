// Per-warp memory coalescing: groups the active lanes' byte ranges into
// the minimal set of cache-line transactions, exactly as the hardware
// memory controller does for a warp-wide load (CUDA programming guide,
// "coalesced access": addresses falling in one line are served by a
// single transaction).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "gpusim/lane_mask.hpp"

namespace harmonia::gpusim {

/// The distinct line addresses one warp access touches, sorted ascending.
/// Fixed capacity, no heap: a lane touches at most two lines, so a
/// 32-lane warp needs at most 64 slots. The order is part of the
/// simulation — the caches are probed in it, and LRU state depends on it.
class LineSet {
 public:
  static constexpr std::size_t kCapacity = 64;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::uint64_t operator[](std::size_t i) const { return lines_[i]; }
  const std::uint64_t* begin() const { return lines_.data(); }
  const std::uint64_t* end() const { return lines_.data() + size_; }

 private:
  friend LineSet coalesce(std::span<const std::uint64_t>, LaneMask, unsigned, unsigned);

  // Only [0, size_) is written: no zero-fill on every warp access.
  std::array<std::uint64_t, kCapacity> lines_;
  std::size_t size_ = 0;
};

/// Computes the distinct line addresses (addr / line_bytes) touched by the
/// active lanes. Each lane reads `bytes_per_lane` starting at addrs[lane];
/// an access straddling a line boundary contributes both lines. Mask bits
/// at or above addrs.size() are ignored.
/// Preconditions (always checked): addrs.size() <= 32, line_bytes a power
/// of two, 0 < bytes_per_lane <= line_bytes.
/// The result is sorted and deduplicated; its size is the transaction count.
LineSet coalesce(std::span<const std::uint64_t> addrs, LaneMask active, unsigned bytes_per_lane,
                 unsigned line_bytes);

}  // namespace harmonia::gpusim
