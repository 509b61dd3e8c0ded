#include "implicit/search.hpp"

#include <array>
#include <bit>

#include "common/expect.hpp"
#include "harmonia/search.hpp"  // resolve_group_size

namespace harmonia::implicit {

using gpusim::LaneMask;

ImplicitDeviceImage ImplicitDeviceImage::upload(gpusim::Device& device,
                                                const ImplicitTree& tree) {
  ImplicitDeviceImage img;
  img.fanout = tree.fanout();
  img.height = tree.height();
  img.num_nodes = tree.num_nodes();
  auto& mem = device.memory();
  img.keys = mem.malloc<Key>(tree.keys().size());
  mem.copy_to_device(img.keys, tree.keys());
  img.values = mem.malloc<Value>(tree.values().size());
  mem.copy_to_device(img.values, tree.values());
  return img;
}

ImplicitSearchStats implicit_search_batch(gpusim::Device& device,
                                          const ImplicitDeviceImage& image,
                                          gpusim::DevPtr<Key> queries, std::uint64_t n,
                                          gpusim::DevPtr<Value> out_values,
                                          unsigned group_size) {
  HARMONIA_CHECK(n > 0);
  const gpusim::DeviceSpec& spec = device.spec();
  const unsigned warp = spec.warp_size;
  const unsigned gs = harmonia::resolve_group_size(spec, image.fanout, group_size);
  const unsigned qpw = warp / gs;
  const unsigned kpn = image.keys_per_node();
  const unsigned chunks_per_node = (kpn + gs - 1) / gs;
  const std::uint64_t num_warps = (n + qpw - 1) / qpw;

  auto kernel = [&](gpusim::WarpCtx& w) {
    const std::uint64_t base = w.warp_id() * qpw;
    const unsigned nq = static_cast<unsigned>(std::min<std::uint64_t>(qpw, n - base));

    // Group sets are bitmasks over group indices, walked with countr_zero.
    std::array<gpusim::LaneRow, 32> rows{};
    std::array<Key, 32> lane_keys{};
    std::array<Key, 32> target{};
    std::array<std::uint32_t, 32> node{};
    std::array<unsigned, 32> sep_leq{};
    std::array<std::uint32_t, 32> found_node{};
    std::array<unsigned, 32> found_slot{};
    // Groups still descending, and those that matched their key.
    std::uint32_t active = gpusim::full_mask(nq);
    std::uint32_t found = 0;
    const auto group_rows = [&](unsigned nr) {
      return std::span<const gpusim::LaneRow>(rows.data(), nr);
    };

    LaneMask leader_mask = 0;
    for (unsigned g = 0; g < nq; ++g) leader_mask |= gpusim::lane_bit(g * gs);
    {
      std::array<Key, 32> qvals{};
      w.gather<Key>(gpusim::leader_rows(queries.element_addr(base), sizeof(Key), nq, gs, rows),
                    qvals);
      for (unsigned g = 0; g < nq; ++g) target[g] = qvals[g * gs];
      w.compute(leader_mask);
    }

    // Keys can match at any level, and groups can run out of tree at
    // different depths: the warp loops until every group is done.
    for (unsigned level = 0; level < image.height; ++level) {
      for (std::uint32_t rest = active; rest != 0; rest &= rest - 1) {
        const auto g = static_cast<unsigned>(std::countr_zero(rest));
        if (node[g] >= image.num_nodes) active &= ~(1u << g);
        sep_leq[g] = 0;
      }
      if (active == 0) break;

      // Groups still scanning this node; a group's chunk is one row.
      std::uint32_t scanning = active;
      for (unsigned chunk = 0; chunk < chunks_per_node && scanning != 0; ++chunk) {
        const unsigned first_slot = chunk * gs;
        const unsigned lanes = std::min(gs, kpn - first_slot);
        const bool last_chunk = chunk + 1 == chunks_per_node;
        LaneMask mask = 0;
        unsigned nr = 0;
        for (std::uint32_t rest = scanning; rest != 0; rest &= rest - 1) {
          const auto g = static_cast<unsigned>(std::countr_zero(rest));
          mask |= gpusim::group_mask(g * gs, lanes);
          rows[nr++] = {image.key_addr(node[g], first_slot), g * gs, lanes};
        }
        w.gather<Key>(group_rows(nr), lane_keys);
        w.compute(mask);

        for (std::uint32_t rest = scanning; rest != 0; rest &= rest - 1) {
          const auto g = static_cast<unsigned>(std::countr_zero(rest));
          const std::uint32_t bit = 1u << g;
          bool stopped = false;
          for (unsigned j = 0; j < lanes; ++j) {
            const Key k = lane_keys[g * gs + j];
            if (k == target[g]) {
              found |= bit;
              found_node[g] = node[g];
              found_slot[g] = first_slot + j;
              active &= ~bit;
              stopped = true;
              break;
            }
            if (k > target[g]) {
              stopped = true;  // boundary: descend via sep_leq
              break;
            }
            ++sep_leq[g];
          }
          if (stopped || last_chunk) scanning &= ~bit;
        }
      }

      // Index arithmetic only — no memory access for the child location.
      LaneMask mask = 0;
      for (std::uint32_t rest = active; rest != 0; rest &= rest - 1) {
        const auto g = static_cast<unsigned>(std::countr_zero(rest));
        mask |= gpusim::lane_bit(g * gs);
        node[g] = node[g] * image.fanout + sep_leq[g] + 1;
      }
      if (mask != 0) w.compute(mask);
    }

    std::array<Value, 32> vals{};
    unsigned nr = 0;
    for (std::uint32_t rest = found; rest != 0; rest &= rest - 1) {
      const auto g = static_cast<unsigned>(std::countr_zero(rest));
      rows[nr++] = {image.value_addr(found_node[g], found_slot[g]), g * gs, 1};
    }
    w.gather<Value>(group_rows(nr), vals);
    std::array<Value, 32> out_vals{};
    for (unsigned g = 0; g < nq; ++g) {
      out_vals[g * gs] = (found >> g & 1u) != 0 ? vals[g * gs] : kNotFound;
    }
    w.scatter<Value>(
        gpusim::leader_rows(out_values.element_addr(base), sizeof(Value), nq, gs, rows),
        std::span<const Value>(out_vals.data(), warp));
  };

  ImplicitSearchStats stats;
  stats.metrics = device.launch(num_warps, kernel);
  stats.queries = n;
  stats.warps = num_warps;
  return stats;
}

}  // namespace harmonia::implicit
