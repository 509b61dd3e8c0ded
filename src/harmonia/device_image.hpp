// Placement of a HarmoniaTree in simulated GPU memory (§3.1):
//  - key region and value region -> global memory (read through the
//    per-SM read-only cache during traversal),
//  - prefix-sum child region -> the top levels go to constant memory
//    (64 KB budget), the rest stays in global memory and streams through
//    the read-only cache.
#pragma once

#include <cstdint>

#include "gpusim/device.hpp"
#include "harmonia/tree.hpp"

namespace harmonia {

/// Bounded device-resident delta overlay (docs/serving.md#epoch-pipeline):
/// a small sorted array of (key, value, tombstone) patches consulted by
/// the search/range kernels before the base image. A live entry serves
/// `value` for a key absent from (or shadowing) the base key region; a
/// tombstone hides a key still physically present in the base. The host
/// keeps the authoritative mirror (HarmoniaIndex); the arrays here are
/// rewritten wholesale by commit_patch when the mirror is dirty.
struct DeltaOverlayImage {
  gpusim::DevPtr<Key> keys;
  gpusim::DevPtr<Value> values;
  gpusim::DevPtr<std::uint8_t> tombstones;
  std::uint32_t count = 0;
  std::uint32_t capacity = 0;

  std::uint64_t key_addr(std::uint32_t i) const { return keys.element_addr(i); }
  std::uint64_t value_addr(std::uint32_t i) const { return values.element_addr(i); }
  std::uint64_t tombstone_addr(std::uint32_t i) const {
    return tombstones.element_addr(i);
  }
};

struct HarmoniaDeviceImage {
  unsigned fanout = 0;
  unsigned height = 0;
  std::uint32_t num_nodes = 0;
  std::uint32_t first_leaf = 0;
  /// Keys in the base regions: Equation 2's n for the batches this image
  /// serves. Set at upload, refreshed by HarmoniaIndex::commit_patch.
  std::uint64_t num_keys = 0;

  gpusim::DevPtr<Key> key_region;
  gpusim::DevPtr<Value> value_region;
  /// prefix_sum[0 .. ps_const_count) — complete top levels — in constant
  /// memory; the full array is mirrored in global memory for the rest.
  gpusim::DevPtr<std::uint32_t> ps_const;
  gpusim::DevPtr<std::uint32_t> ps_global;
  std::uint32_t ps_const_count = 0;

  /// Incremental-update patches layered over the base regions. Empty
  /// (count == 0) unless the owning index enabled an overlay capacity;
  /// kernels skip the probe entirely in that case.
  DeltaOverlayImage overlay;

  unsigned keys_per_node() const { return fanout - 1; }

  /// Address of prefix_sum[node], routed to the right memory space.
  std::uint64_t ps_addr(std::uint32_t node) const {
    return node < ps_const_count ? ps_const.element_addr(node)
                                 : ps_global.element_addr(node);
  }

  std::uint64_t node_key_addr(std::uint32_t node, unsigned slot) const {
    return key_region.element_addr(
        static_cast<std::uint64_t>(node) * keys_per_node() + slot);
  }

  std::uint64_t value_addr(std::uint32_t leaf_node, unsigned slot) const {
    return value_region.element_addr(
        static_cast<std::uint64_t>(leaf_node - first_leaf) * keys_per_node() + slot);
  }

  /// Child rule of the shared descend (harmonia/descend.hpp), Equation 1:
  /// the leader lane loads prefix_sum[node], the child is that plus the
  /// separators <= target.
  std::uint64_t child_addr(std::uint32_t node, unsigned /*sep_leq*/) const {
    return ps_addr(node);
  }
  static std::uint32_t child(std::uint32_t prefix_sum, unsigned sep_leq) {
    return prefix_sum + sep_leq;
  }

  /// The uploaded regions, read in place through `memory` (the global
  /// mirror of the prefix-sum array holds every node).
  TreeView view(const gpusim::Memory& memory) const;

  /// Uploads `tree` into `device` memory. `const_budget_bytes` caps how
  /// much of the prefix-sum array goes to constant memory (whole levels
  /// only); the default leaves headroom in the 64 KB segment.
  static HarmoniaDeviceImage upload(gpusim::Device& device, const HarmoniaTree& tree,
                                    std::uint64_t const_budget_bytes = 60 << 10);
};

}  // namespace harmonia
