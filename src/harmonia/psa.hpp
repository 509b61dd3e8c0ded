// Partially-Sorted Aggregation (§4.1): pre-sort a query batch on its top
// N bits before launching the search kernel so warp-adjacent queries share
// traversal prefixes (coalesced loads, less warp divergence) — at a
// fraction of a full sort's cost.
//
// N comes from Equation 2: queries whose targets fall inside one cache
// line's key range need no mutual ordering, so only the bits above that
// range are worth sorting. The sort itself runs on the host; its simulated
// GPU cost (CUB radix sort, time ∝ sorted bits) is charged by
// sort::gpu_radix_sort_cycles and reported alongside the kernel time.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/device_spec.hpp"
#include "harmonia/tree.hpp"

namespace harmonia {

enum class PsaMode {
  kNone,     ///< issue queries in arrival order
  kPartial,  ///< sort the top N bits: Equation 2's N, or a forced count
             ///< (64 is the complete sort, the strawman of §4.1.1)
};

struct PsaPlan {
  /// Queries in issue order.
  std::vector<Key> queries;
  /// permutation[i] = original index of queries[i]; used to restore result
  /// order after the kernel.
  std::vector<std::uint64_t> permutation;
  /// Bits actually sorted.
  unsigned sorted_bits = 0;
  /// Simulated GPU cycles spent sorting (0 for kNone).
  double sort_cycles = 0.0;

  double sort_seconds(const gpusim::DeviceSpec& spec) const {
    return sort_cycles / (spec.clock_ghz * 1e9);
  }
};

/// Equation 2 on `spec`: the top bits of 64-bit keys worth sorting for a
/// tree of `tree_size` keys (T), with K keys per cache line.
unsigned psa_equation2_bits(std::uint64_t tree_size, const gpusim::DeviceSpec& spec);

/// Builds the issue-order plan for a batch. `tree_size` is the number of
/// keys in the tree (T of Equation 2). `override_bits` forces a specific
/// N for kPartial (0 = use Equation 2) — the §4.1.2 bit-sweep uses this.
PsaPlan psa_prepare(std::span<const Key> batch, std::uint64_t tree_size,
                    const gpusim::DeviceSpec& spec, PsaMode mode,
                    unsigned override_bits = 0);

/// Scatters kernel results (in issue order) back to arrival order.
void psa_restore(const PsaPlan& plan, std::span<const Value> issue_order_results,
                 std::span<Value> arrival_order_out);

}  // namespace harmonia
