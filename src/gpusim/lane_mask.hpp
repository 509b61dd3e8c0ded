// Lane activity masks for SIMT warp execution (up to 32 lanes).
#pragma once

#include <bit>
#include <cstdint>

#include "common/expect.hpp"

namespace harmonia::gpusim {

using LaneMask = std::uint32_t;

/// Mask with the low `lanes` bits set (the full warp for warp_size lanes).
inline LaneMask full_mask(unsigned lanes) {
  HARMONIA_DCHECK(lanes >= 1 && lanes <= 32);
  return lanes == 32 ? ~LaneMask{0} : ((LaneMask{1} << lanes) - 1);
}

inline LaneMask lane_bit(unsigned lane) {
  HARMONIA_DCHECK(lane < 32);
  return LaneMask{1} << lane;
}

inline bool lane_active(LaneMask mask, unsigned lane) { return (mask & lane_bit(lane)) != 0; }

inline unsigned active_count(LaneMask mask) { return static_cast<unsigned>(std::popcount(mask)); }

/// Mask covering lanes [first, first+count).
inline LaneMask group_mask(unsigned first, unsigned count) {
  HARMONIA_DCHECK(first + count <= 32);
  return full_mask(count) << first;
}

}  // namespace harmonia::gpusim
