#include "harmonia/search.hpp"

#include <array>
#include <bit>

#include "common/expect.hpp"
#include "harmonia/descend.hpp"

namespace harmonia {

using gpusim::LaneMask;

unsigned resolve_group_size(const gpusim::DeviceSpec& spec, unsigned fanout,
                            unsigned requested) {
  if (requested == 0) {
    // Traditional fanout-based group: fanout threads per query, capped at
    // the warp (footnote 2 of the paper).
    requested = std::min(std::bit_ceil(fanout), spec.warp_size);
  }
  HARMONIA_CHECK_MSG(std::has_single_bit(requested), "group_size must be a power of two");
  HARMONIA_CHECK_MSG(requested <= spec.warp_size, "group_size exceeds warp size");
  return requested;
}

void overlay_lower_bound(gpusim::WarpCtx& w, const DeltaOverlayImage& ov, unsigned gs,
                         unsigned nq, const WarpGroups& groups,
                         std::array<std::uint32_t, 32>& olo) {
  // The leaders binary-search in lockstep: one leader-lane gather per
  // probe step, log2(count) steps.
  std::array<gpusim::LaneRow, 32> rows;
  std::array<Key, 32> lane_keys;
  std::array<std::uint32_t, 32> ohi;
  for (unsigned g = 0; g < nq; ++g) {
    olo[g] = 0;
    ohi[g] = ov.count;
  }
  for (;;) {
    LaneMask mask = 0;
    unsigned nr = 0;
    for (unsigned g = 0; g < nq; ++g) {
      if (olo[g] >= ohi[g]) continue;
      mask |= gpusim::lane_bit(g * gs);
      rows[nr++] = {ov.key_addr((olo[g] + ohi[g]) / 2), g * gs, 1};
    }
    if (mask == 0) return;
    w.gather<Key>(std::span<const gpusim::LaneRow>(rows.data(), nr), lane_keys);
    w.compute(mask);
    for (unsigned g = 0; g < nq; ++g) {
      if (olo[g] >= ohi[g]) continue;
      const std::uint32_t mid = (olo[g] + ohi[g]) / 2;
      if (lane_keys[g * gs] < groups.target[g]) {
        olo[g] = mid + 1;
      } else {
        ohi[g] = mid;
      }
    }
  }
}

std::uint32_t probe_overlay(gpusim::WarpCtx& w, const DeltaOverlayImage& ov, unsigned gs,
                            unsigned nq, const WarpGroups& groups, std::array<Value, 32>& out) {
  std::array<gpusim::LaneRow, 32> rows;
  std::array<Key, 32> lane_keys;
  const auto group_rows = [&](unsigned nr) {
    return std::span<const gpusim::LaneRow>(rows.data(), nr);
  };
  std::array<std::uint32_t, 32> olo;
  overlay_lower_bound(w, ov, gs, nq, groups, olo);
  // Equality probe at the lower bound, then tombstone + value fetch for
  // the hit groups.
  LaneMask probe = 0;
  unsigned nr = 0;
  for (unsigned g = 0; g < nq; ++g) {
    if (olo[g] >= ov.count) continue;
    probe |= gpusim::lane_bit(g * gs);
    rows[nr++] = {ov.key_addr(olo[g]), g * gs, 1};
  }
  if (probe == 0) return 0;
  w.gather<Key>(group_rows(nr), lane_keys);
  w.compute(probe);
  LaneMask hitm = 0;
  std::uint32_t hit_groups = 0;
  nr = 0;
  for (unsigned g = 0; g < nq; ++g) {
    if (olo[g] >= ov.count || lane_keys[g * gs] != groups.target[g]) continue;
    hitm |= gpusim::lane_bit(g * gs);
    hit_groups |= 1u << g;
    rows[nr++] = {ov.tombstone_addr(olo[g]), g * gs, 1};
  }
  if (hitm == 0) return 0;
  std::array<std::uint8_t, 32> tombs;
  w.gather<std::uint8_t>(group_rows(nr), tombs);
  nr = 0;
  for (std::uint32_t rest = hit_groups; rest != 0; rest &= rest - 1) {
    const auto g = static_cast<unsigned>(std::countr_zero(rest));
    if (tombs[g * gs] == 0) rows[nr++] = {ov.value_addr(olo[g]), g * gs, 1};
  }
  std::array<Value, 32> ovals;
  w.gather<Value>(group_rows(nr), ovals);
  w.compute(hitm);
  for (std::uint32_t rest = hit_groups; rest != 0; rest &= rest - 1) {
    const auto g = static_cast<unsigned>(std::countr_zero(rest));
    out[g * gs] = tombs[g * gs] != 0 ? kNotFound : ovals[g * gs];
  }
  return hit_groups;
}

SearchStats search_batch(gpusim::Device& device, const HarmoniaDeviceImage& image,
                         gpusim::DevPtr<Key> queries, std::uint64_t n,
                         gpusim::DevPtr<Value> out_values, const SearchConfig& config) {
  return lookup_batch(device, image, queries, n, out_values, config);
}

}  // namespace harmonia
