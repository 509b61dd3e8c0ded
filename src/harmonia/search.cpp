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

    // Per-warp scratch is written before it is read (no lane outside a
    // gather's rows is read back). Group sets are bitmasks over group
    // indices, walked with countr_zero.
    std::array<gpusim::LaneRow, 32> rows;
    std::array<Key, 32> lane_keys;
    std::array<Key, 32> target;               // per group
    std::array<std::uint32_t, 32> node;       // per group, BFS index
    std::array<std::uint64_t, 32> node_base;  // per group, its node's first key
    std::array<unsigned, 32> sep_leq;         // per group, separators <= target
    std::array<unsigned, 32> found_slot;      // per group in `found`
    std::array<Value, 32> res_val;            // per group the overlay resolved
    // Groups that walk the tree (not resolved by the overlay), and those
    // whose leaf scan hit their key.
    std::uint32_t walking = gpusim::full_mask(nq);
    std::uint32_t found = 0;
    const auto group_rows = [&](unsigned nr) {
      return std::span<const gpusim::LaneRow>(rows.data(), nr);
    };

    // Load this warp's queries: the leader lane of each group issues the
    // read; the values then broadcast within the group (register shuffle).
    LaneMask leader_mask = 0;
    for (unsigned g = 0; g < nq; ++g) leader_mask |= gpusim::lane_bit(g * gs);
    {
      std::array<Key, 32> qvals;
      w.gather<Key>(gpusim::leader_rows(queries.element_addr(base), sizeof(Key), nq, gs, rows),
                    qvals);
      for (unsigned g = 0; g < nq; ++g) target[g] = qvals[g * gs];
      w.compute(leader_mask);  // broadcast/setup
    }

    for (unsigned g = 0; g < nq; ++g) node[g] = 0;

    // Delta-overlay probe (incremental updates): before traversal, each
    // group's leader binary-searches the small sorted patch array in
    // lockstep — one leader-lane gather per probe step, log2(count)
    // steps. A hit resolves the query right here (live entry -> its
    // value, tombstone -> not-found) and the group skips the tree walk.
    const DeltaOverlayImage& ov = image.overlay;
    if (ov.count > 0) {
      std::array<std::uint32_t, 32> olo;
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
        if (mask == 0) break;
        w.gather<Key>(group_rows(nr), lane_keys);
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
      unsigned nr = 0;
      for (unsigned g = 0; g < nq; ++g) {
        if (olo[g] >= ov.count) continue;
        probe |= gpusim::lane_bit(g * gs);
        rows[nr++] = {ov.key_addr(olo[g]), g * gs, 1};
      }
      if (probe != 0) {
        w.gather<Key>(group_rows(nr), lane_keys);
        w.compute(probe);
        LaneMask hitm = 0;
        std::uint32_t hit_groups = 0;
        nr = 0;
        for (unsigned g = 0; g < nq; ++g) {
          if (olo[g] >= ov.count || lane_keys[g * gs] != target[g]) continue;
          hitm |= gpusim::lane_bit(g * gs);
          hit_groups |= 1u << g;
          rows[nr++] = {ov.tombstone_addr(olo[g]), g * gs, 1};
        }
        if (hitm != 0) {
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
            res_val[g] = tombs[g * gs] != 0 ? kNotFound : ovals[g * gs];
          }
          walking &= ~hit_groups;
        }
      }
    }

    for (unsigned level = 0; level < image.height; ++level) {
      const bool leaf_level = (level + 1 == image.height);
      // Groups still comparing keys on this node. Without early exit a
      // group past its boundary keeps loading chunks (the useless
      // comparisons of §4.2) but compares nothing more: every later key
      // is above its target, so the result could not change.
      std::uint32_t scanning = walking;
      for (std::uint32_t rest = walking; rest != 0; rest &= rest - 1) {
        const auto g = static_cast<unsigned>(std::countr_zero(rest));
        sep_leq[g] = 0;
        node_base[g] = image.node_key_addr(node[g], 0);
      }

      // Chunked key scan of each group's current node. A chunk covers
      // `lanes` slots (the last one may be short), read by a group's first
      // `lanes` lanes from consecutive addresses: one row per group.
      for (unsigned chunk = 0; chunk < chunks_per_node; ++chunk) {
        const std::uint32_t loading = config.early_exit ? scanning : walking;
        if (loading == 0) break;
        const unsigned first_slot = chunk * gs;
        const unsigned lanes = std::min(gs, kpn - first_slot);
        const bool last_chunk = chunk + 1 == chunks_per_node;
        LaneMask mask = 0;
        unsigned nr = 0;
        for (std::uint32_t rest = loading; rest != 0; rest &= rest - 1) {
          const auto g = static_cast<unsigned>(std::countr_zero(rest));
          mask |= gpusim::group_mask(g * gs, lanes);
          rows[nr++] = {node_base[g] + first_slot * sizeof(Key), g * gs, lanes};
        }
        w.gather<Key>(group_rows(nr), lane_keys);
        w.compute(mask);  // the SIMT comparison step
        ++warp_chunk_steps;

        for (std::uint32_t rest = scanning; rest != 0; rest &= rest - 1) {
          const auto g = static_cast<unsigned>(std::countr_zero(rest));
          const Key t = target[g];
          const Key* keys = &lane_keys[g * gs];
          // Keys are sorted: the scan stops at the first key >= target on
          // a leaf (equal is the hit) or the first separator > target.
          unsigned j = 0;
          if (leaf_level) {
            while (j < lanes && keys[j] < t) ++j;
            if (j < lanes && keys[j] == t) {
              found |= 1u << g;
              found_slot[g] = first_slot + j;
            }
          } else {
            while (j < lanes && keys[j] <= t) ++j;
            sep_leq[g] += j;
          }
          if (j < lanes || last_chunk) scanning &= ~(1u << g);
        }
      }

      if (!leaf_level && walking != 0) {
        // Equation 1: child = prefix_sum[node] + separators_leq. The
        // leader lane fetches the prefix-sum entry (constant memory for
        // top levels, read-only cache below).
        LaneMask mask = 0;
        unsigned nr = 0;
        for (std::uint32_t rest = walking; rest != 0; rest &= rest - 1) {
          const auto g = static_cast<unsigned>(std::countr_zero(rest));
          mask |= gpusim::lane_bit(g * gs);
          rows[nr++] = {image.ps_addr(node[g]), g * gs, 1};
        }
        std::array<std::uint32_t, 32> ps_vals;
        w.gather<std::uint32_t>(group_rows(nr), ps_vals);
        w.compute(mask);  // index arithmetic
        for (std::uint32_t rest = walking; rest != 0; rest &= rest - 1) {
          const auto g = static_cast<unsigned>(std::countr_zero(rest));
          node[g] = ps_vals[g * gs] + sep_leq[g];
        }
      }
    }

    // Fetch values for hits and write results.
    std::array<Value, 32> vals;
    unsigned nr = 0;
    for (std::uint32_t rest = found; rest != 0; rest &= rest - 1) {
      const auto g = static_cast<unsigned>(std::countr_zero(rest));
      rows[nr++] = {image.value_addr(node[g], found_slot[g]), g * gs, 1};
    }
    w.gather<Value>(group_rows(nr), vals);
    std::array<Value, 32> out_vals;
    for (unsigned g = 0; g < nq; ++g) {
      const std::uint32_t bit = 1u << g;
      out_vals[g * gs] = (walking & bit) == 0 ? res_val[g]
                         : (found & bit) != 0 ? vals[g * gs]
                                              : kNotFound;
    }
    w.scatter<Value>(
        gpusim::leader_rows(out_values.element_addr(base), sizeof(Value), nq, gs, rows),
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
