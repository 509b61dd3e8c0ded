#include "harmonia/search.hpp"

#include <array>
#include <bit>
#include <numeric>
#include <vector>

#include "common/expect.hpp"

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

SearchStats search_batch(gpusim::Device& device, const HarmoniaDeviceImage& image,
                         gpusim::DevPtr<Key> queries, std::uint64_t n,
                         gpusim::DevPtr<Value> out_values, const SearchConfig& config) {
  HARMONIA_CHECK(n > 0);
  HARMONIA_CHECK(image.num_nodes > 0);
  const gpusim::DeviceSpec& spec = device.spec();
  const unsigned warp = spec.warp_size;
  const unsigned gs = resolve_group_size(spec, image.fanout, config.group_size);
  const unsigned qpw = warp / gs;
  const unsigned kpn = image.keys_per_node();
  const unsigned chunks_per_node = (kpn + gs - 1) / gs;
  const std::uint64_t num_warps = (n + qpw - 1) / qpw;

  // Warps may run on several host threads: each writes only its own slot.
  std::vector<std::uint32_t> chunk_steps(num_warps);

  auto kernel = [&](gpusim::WarpCtx& w) {
    const std::uint64_t base = w.warp_id() * qpw;
    std::uint32_t warp_chunk_steps = 0;
    const unsigned nq = static_cast<unsigned>(std::min<std::uint64_t>(qpw, n - base));

    std::array<std::uint64_t, 32> addrs{};
    std::array<Key, 32> lane_keys{};
    std::array<Key, 32> target{};          // per group
    std::array<std::uint32_t, 32> node{};  // per group, BFS index
    std::array<std::uint32_t, 32> ps{};    // per group, prefix-sum value
    std::array<unsigned, 32> sep_leq{};    // per group, separators <= target
    std::array<bool, 32> group_done{};
    std::array<bool, 32> found{};
    std::array<unsigned, 32> found_slot{};

    // Load this warp's queries: the leader lane of each group issues the
    // read; the values then broadcast within the group (register shuffle).
    LaneMask leader_mask = 0;
    for (unsigned g = 0; g < nq; ++g) {
      leader_mask |= gpusim::lane_bit(g * gs);
      addrs[g * gs] = queries.element_addr(base + g);
    }
    {
      std::array<Key, 32> qvals{};
      if (config.account_query_load) {
        w.gather<Key>(leader_mask, std::span(addrs.data(), warp), qvals);
      } else {
        for (unsigned g = 0; g < nq; ++g) {
          qvals[g * gs] = device.memory().read<Key>(addrs[g * gs]);
        }
      }
      for (unsigned g = 0; g < nq; ++g) target[g] = qvals[g * gs];
      w.compute(leader_mask);  // broadcast/setup
    }

    for (unsigned g = 0; g < nq; ++g) node[g] = 0;

    // Delta-overlay probe (incremental updates): before traversal, each
    // group's leader binary-searches the small sorted patch array in
    // lockstep — one leader-lane gather per probe step, log2(count)
    // steps. A hit resolves the query right here (live entry -> its
    // value, tombstone -> not-found) and the group skips the tree walk.
    std::array<bool, 32> resolved{};
    std::array<Value, 32> res_val{};
    const DeltaOverlayImage& ov = image.overlay;
    if (ov.count > 0) {
      std::array<std::uint32_t, 32> olo{};
      std::array<std::uint32_t, 32> ohi{};
      for (unsigned g = 0; g < nq; ++g) {
        olo[g] = 0;
        ohi[g] = ov.count;
      }
      for (;;) {
        LaneMask mask = 0;
        for (unsigned g = 0; g < nq; ++g) {
          if (olo[g] >= ohi[g]) continue;
          mask |= gpusim::lane_bit(g * gs);
          addrs[g * gs] = ov.key_addr((olo[g] + ohi[g]) / 2);
        }
        if (mask == 0) break;
        w.gather<Key>(mask, std::span(addrs.data(), warp), lane_keys);
        w.compute(mask);
        for (unsigned g = 0; g < nq; ++g) {
          if (olo[g] >= ohi[g]) continue;
          const std::uint32_t mid = (olo[g] + ohi[g]) / 2;
          if (lane_keys[g * gs] < target[g]) {
            olo[g] = mid + 1;
          } else {
            ohi[g] = mid;
          }
        }
      }
      // Equality probe at the lower bound, then tombstone + value fetch
      // for the hit groups.
      LaneMask probe = 0;
      for (unsigned g = 0; g < nq; ++g) {
        if (olo[g] >= ov.count) continue;
        probe |= gpusim::lane_bit(g * gs);
        addrs[g * gs] = ov.key_addr(olo[g]);
      }
      if (probe != 0) {
        w.gather<Key>(probe, std::span(addrs.data(), warp), lane_keys);
        w.compute(probe);
        LaneMask hitm = 0;
        for (unsigned g = 0; g < nq; ++g) {
          if (olo[g] >= ov.count || lane_keys[g * gs] != target[g]) continue;
          hitm |= gpusim::lane_bit(g * gs);
          addrs[g * gs] = ov.tombstone_addr(olo[g]);
        }
        if (hitm != 0) {
          std::array<std::uint8_t, 32> tombs{};
          w.gather<std::uint8_t>(hitm, std::span(addrs.data(), warp), tombs);
          LaneMask livem = 0;
          for (unsigned g = 0; g < nq; ++g) {
            if (!gpusim::lane_active(hitm, g * gs) || tombs[g * gs] != 0) continue;
            livem |= gpusim::lane_bit(g * gs);
            addrs[g * gs] = ov.value_addr(olo[g]);
          }
          std::array<Value, 32> ovals{};
          if (livem != 0) {
            w.gather<Value>(livem, std::span(addrs.data(), warp), ovals);
          }
          w.compute(hitm);
          for (unsigned g = 0; g < nq; ++g) {
            if (!gpusim::lane_active(hitm, g * gs)) continue;
            resolved[g] = true;
            res_val[g] = tombs[g * gs] != 0 ? kNotFound : ovals[g * gs];
          }
        }
      }
    }

    for (unsigned level = 0; level < image.height; ++level) {
      const bool leaf_level = (level + 1 == image.height);
      for (unsigned g = 0; g < nq; ++g) {
        group_done[g] = false;
        sep_leq[g] = 0;
      }

      // Chunked key scan of each group's current node.
      for (unsigned chunk = 0; chunk < chunks_per_node; ++chunk) {
        LaneMask mask = 0;
        for (unsigned g = 0; g < nq; ++g) {
          if (resolved[g] || (config.early_exit && group_done[g])) continue;
          for (unsigned j = 0; j < gs; ++j) {
            const unsigned slot = chunk * gs + j;
            if (slot >= kpn) break;
            const unsigned lane = g * gs + j;
            mask |= gpusim::lane_bit(lane);
            addrs[lane] = image.node_key_addr(node[g], slot);
          }
        }
        if (mask == 0) break;
        w.gather<Key>(mask, std::span(addrs.data(), warp), lane_keys);
        w.compute(mask);  // the SIMT comparison step
        ++warp_chunk_steps;

        for (unsigned g = 0; g < nq; ++g) {
          if (resolved[g] || (config.early_exit && group_done[g])) continue;
          for (unsigned j = 0; j < gs; ++j) {
            const unsigned slot = chunk * gs + j;
            if (slot >= kpn) {
              group_done[g] = true;
              break;
            }
            const Key k = lane_keys[g * gs + j];
            if (leaf_level) {
              if (k == target[g]) {
                found[g] = true;
                found_slot[g] = slot;
                group_done[g] = true;
                break;
              }
              if (k > target[g]) {  // sorted: target cannot appear later
                group_done[g] = true;
                break;
              }
            } else {
              if (k <= target[g]) {
                ++sep_leq[g];
              } else {  // boundary: first separator > target
                group_done[g] = true;
                break;
              }
            }
          }
          if (chunk + 1 == chunks_per_node) group_done[g] = true;
        }
      }

      if (!leaf_level) {
        // Equation 1: child = prefix_sum[node] + separators_leq. The
        // leader lane fetches the prefix-sum entry (constant memory for
        // top levels, read-only cache below).
        LaneMask mask = 0;
        for (unsigned g = 0; g < nq; ++g) {
          if (resolved[g]) continue;
          mask |= gpusim::lane_bit(g * gs);
          addrs[g * gs] = image.ps_addr(node[g]);
        }
        if (mask != 0) {
          std::array<std::uint32_t, 32> ps_vals{};
          w.gather<std::uint32_t>(mask, std::span(addrs.data(), warp), ps_vals);
          w.compute(mask);  // index arithmetic
          for (unsigned g = 0; g < nq; ++g) {
            if (resolved[g]) continue;
            ps[g] = ps_vals[g * gs];
            node[g] = ps[g] + sep_leq[g];
          }
        }
      }
    }

    // Fetch values for hits and write results.
    LaneMask hit_mask = 0;
    std::array<Value, 32> vals{};
    for (unsigned g = 0; g < nq; ++g) {
      if (found[g]) {
        hit_mask |= gpusim::lane_bit(g * gs);
        addrs[g * gs] = image.value_addr(node[g], found_slot[g]);
      }
    }
    if (hit_mask != 0) {
      w.gather<Value>(hit_mask, std::span(addrs.data(), warp), vals);
    }
    LaneMask out_mask = 0;
    std::array<Value, 32> out_vals{};
    for (unsigned g = 0; g < nq; ++g) {
      const unsigned lane = g * gs;
      out_mask |= gpusim::lane_bit(lane);
      addrs[lane] = out_values.element_addr(base + g);
      out_vals[lane] =
          resolved[g] ? res_val[g] : (found[g] ? vals[lane] : kNotFound);
    }
    w.scatter<Value>(out_mask, std::span(addrs.data(), warp),
                     std::span<const Value>(out_vals.data(), warp));
    chunk_steps[w.warp_id()] = warp_chunk_steps;
  };

  SearchStats stats;
  stats.metrics = device.launch(num_warps, kernel);
  stats.queries = n;
  stats.warps = num_warps;
  stats.chunk_steps =
      std::accumulate(chunk_steps.begin(), chunk_steps.end(), std::uint64_t{0});
  return stats;
}

}  // namespace harmonia
