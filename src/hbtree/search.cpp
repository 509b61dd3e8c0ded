#include "hbtree/search.hpp"

#include <array>
#include <bit>

#include "common/expect.hpp"

namespace harmonia::hbtree {

using gpusim::LaneMask;

HBSearchStats hb_search_batch(gpusim::Device& device, const HBTreeDeviceImage& image,
                              gpusim::DevPtr<Key> queries, std::uint64_t n,
                              gpusim::DevPtr<Value> out_values) {
  HARMONIA_CHECK(n > 0);
  const gpusim::DeviceSpec& spec = device.spec();
  const unsigned warp = spec.warp_size;
  const unsigned gs = std::min(std::bit_ceil(image.fanout), warp);
  const unsigned qpw = warp / gs;
  const unsigned kpn = image.keys_per_node();
  const unsigned chunks_per_node = (kpn + gs - 1) / gs;
  const std::uint64_t num_warps = (n + qpw - 1) / qpw;

  auto kernel = [&](gpusim::WarpCtx& w) {
    const std::uint64_t base = w.warp_id() * qpw;
    const unsigned nq = static_cast<unsigned>(std::min<std::uint64_t>(qpw, n - base));

    // Scratch is written before it is read; `node` (the root) and `found`
    // start zeroed.
    std::array<gpusim::LaneRow, 32> rows;
    std::array<Key, 32> lane_keys;
    std::array<Key, 32> target;
    std::array<std::uint32_t, 32> node{};
    std::array<unsigned, 32> sep_leq;
    std::array<bool, 32> found{};
    std::array<unsigned, 32> found_slot;
    const auto group_rows = [&](unsigned nr) {
      return std::span<const gpusim::LaneRow>(rows.data(), nr);
    };

    LaneMask leader_mask = 0;
    for (unsigned g = 0; g < nq; ++g) leader_mask |= gpusim::lane_bit(g * gs);
    {
      std::array<Key, 32> qvals;
      w.gather<Key>(gpusim::leader_rows(queries.element_addr(base), sizeof(Key), nq, gs, rows),
                    qvals);
      for (unsigned g = 0; g < nq; ++g) target[g] = qvals[g * gs];
      w.compute(leader_mask);
    }

    for (unsigned level = 0; level < image.height; ++level) {
      const bool leaf_level = (level + 1 == image.height);
      for (unsigned g = 0; g < nq; ++g) sep_leq[g] = 0;

      // Full-node scan: every chunk, every key (traditional design). A
      // group's chunk is one row of consecutive keys.
      for (unsigned chunk = 0; chunk < chunks_per_node; ++chunk) {
        const unsigned first_slot = chunk * gs;
        const unsigned lanes = std::min(gs, kpn - first_slot);
        LaneMask mask = 0;
        for (unsigned g = 0; g < nq; ++g) {
          mask |= gpusim::group_mask(g * gs, lanes);
          rows[g] = {image.node_key_addr(node[g], first_slot), g * gs, lanes};
        }
        w.gather<Key>(group_rows(nq), lane_keys);
        w.compute(mask);

        for (unsigned g = 0; g < nq; ++g) {
          for (unsigned j = 0; j < lanes; ++j) {
            const Key k = lane_keys[g * gs + j];
            if (leaf_level) {
              if (k == target[g]) {
                found[g] = true;
                found_slot[g] = first_slot + j;
              }
            } else if (k <= target[g]) {
              ++sep_leq[g];
            }
          }
        }
      }

      if (!leaf_level) {
        // The child-reference indirection: a 4 B load from the node
        // record in global memory per query per level.
        for (unsigned g = 0; g < nq; ++g) {
          rows[g] = {image.child_ref_addr(node[g], sep_leq[g]), g * gs, 1};
        }
        std::array<std::uint32_t, 32> refs;
        w.gather<std::uint32_t>(group_rows(nq), refs);
        w.compute(leader_mask);
        for (unsigned g = 0; g < nq; ++g) node[g] = refs[g * gs];
      }
    }

    std::array<Value, 32> vals;
    unsigned nr = 0;
    for (unsigned g = 0; g < nq; ++g) {
      if (found[g]) rows[nr++] = {image.value_addr(node[g], found_slot[g]), g * gs, 1};
    }
    w.gather<Value>(group_rows(nr), vals);
    std::array<Value, 32> out_vals;
    for (unsigned g = 0; g < nq; ++g) out_vals[g * gs] = found[g] ? vals[g * gs] : kNotFound;
    w.scatter<Value>(
        gpusim::leader_rows(out_values.element_addr(base), sizeof(Value), nq, gs, rows),
        std::span<const Value>(out_vals.data(), warp));
  };

  HBSearchStats stats;
  stats.metrics = device.launch(num_warps, kernel);
  stats.queries = n;
  stats.warps = num_warps;
  return stats;
}

}  // namespace harmonia::hbtree
