// Batched point-lookup kernel for Harmonia on the simulated GPU (§3.2.1,
// §4.2).
//
// Each query is served by a *thread group* of `group_size` lanes; a warp
// packs warp_size/group_size queries. Per tree level a group scans its
// node's key slots chunk-by-chunk, and the next node comes from Equation 1
// via the prefix-sum child region (constant memory for the top levels) —
// no child-pointer indirection. At the leaf an equality probe fetches the
// value region slot. The kernel is harmonia/descend.hpp's lookup_batch on
// Harmonia's layout, preceded by the delta-overlay probe.
#pragma once

#include <cstdint>

#include "gpusim/device.hpp"
#include "harmonia/device_image.hpp"

namespace harmonia {

/// Sentinel stored in out_values for queries whose key is absent.
inline constexpr Value kNotFound = ~Value{0};

struct SearchConfig {
  /// Lanes per query; power of two dividing warp_size. 0 selects the
  /// fanout-based group of traditional designs: min(fanout, warp_size).
  unsigned group_size = 0;
  /// Stop scanning a node's chunks once the boundary (first key > target)
  /// is seen. Traditional fanout-based traversal compares every key
  /// (early_exit = false) — the "useless comparisons" of §4.2.
  bool early_exit = true;
};

struct SearchStats {
  gpusim::KernelMetrics metrics;
  std::uint64_t queries = 0;
  std::uint64_t warps = 0;
  /// Total chunk-scan SIMT steps summed over warps and levels; divided by
  /// (warps * height) this is S, the max-comparison-step term of the NTG
  /// model (Equations 3/4).
  std::uint64_t chunk_steps = 0;
};

/// Resolves SearchConfig::group_size (handles the 0 = fanout-based case).
unsigned resolve_group_size(const gpusim::DeviceSpec& spec, unsigned fanout,
                            unsigned requested);

/// Runs the lookup kernel over device arrays `queries`/`out_values` of
/// length n. out_values[i] receives the value or kNotFound.
SearchStats search_batch(gpusim::Device& device, const HarmoniaDeviceImage& image,
                         gpusim::DevPtr<Key> queries, std::uint64_t n,
                         gpusim::DevPtr<Value> out_values, const SearchConfig& config = {});

}  // namespace harmonia
