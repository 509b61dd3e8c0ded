// The warp-level tree descend shared by every kernel (§3.2.1, §4.2), and
// the batched point-lookup kernel built on it.
//
// A thread group of `gs` lanes descends one node per level: it scans the
// node's key slots chunk by chunk (gs keys per SIMT step, one coalesced
// row per group), counting separators <= target, and its leader lane then
// loads the next node with one u32 gather. The simulator reads a group's
// scan outcome from the node in place and accounts the chunk loads the
// scan issues (see descend). Layouts differ only in the child rule:
//   - Harmonia (HarmoniaDeviceImage, Equation 1): load prefix_sum[node],
//     child = loaded + separators;
//   - HB+ (hbtree::HBTreeDeviceImage, §2.2): load child_ref[node][separators],
//     child = loaded.
// A layout supplies fanout, height, num_nodes, keys_per_node(),
// node_key_addr(node, slot), value_addr(leaf, slot), child_addr(node,
// sep_leq) (the gather's address) and child(loaded, sep_leq). Dispatch is
// at compile time: this header is the only chunk-scan loop.
//
// group_size == fanout-ish is the traditional fanout-based layout
// (Figure 9a, all chunks scanned); a narrowed group with early_exit is NTG
// (Figure 9b): fewer useless comparisons, more queries per warp, but the
// warp's per-level step count becomes the max over its groups (query
// divergence).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <concepts>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "common/expect.hpp"
#include "gpusim/device.hpp"
#include "harmonia/device_image.hpp"
#include "harmonia/search.hpp"

namespace harmonia {

/// Per-warp descend state, one slot per thread group (group g owns lanes
/// [g * gs, (g + 1) * gs)). Slots are written before they are read.
struct WarpGroups {
  std::array<Key, 32> target;
  std::array<std::uint32_t, 32> node;  // BFS index of the current node
  std::array<unsigned, 32> found_slot;  // leaf slot, for groups in `found`
  /// Groups whose leaf scan hit their target.
  std::uint32_t found = 0;
};

/// The most chunks a node scan may take: a node of 1024 keys at group
/// size 1.
inline constexpr unsigned kMaxNodeChunks = 1024;

/// Descends the groups in `walking` (a bitmask over group indices) from
/// their `node` through `levels` tree levels. With levels == height the
/// last level is the leaf's equality scan (it sets `found` and
/// `found_slot`); with height - 1 the groups stop with `node` at their
/// leaf. Without early exit a group past its boundary keeps loading
/// chunks (the useless comparisons of §4.2) but compares nothing more:
/// every later key is above its target, so the result could not change.
/// Returns the chunk-scan SIMT steps issued.
///
/// Each group's scan outcome is read once per level from an in-place view
/// of its node's keys: the first slot that stops the scan, hence the
/// chunk the group stops on and its separators <= target (or its leaf
/// hit). The chunk steps then account the loads and compares the group
/// issues up to that chunk, as the hardware would issue them; at group
/// size 1, neighbouring groups on one node read each chunk's key as one
/// broadcast row.
template <class Layout>
std::uint32_t descend(gpusim::WarpCtx& w, const Layout& layout, unsigned gs, bool early_exit,
                      unsigned levels, std::uint32_t walking, WarpGroups& groups) {
  const unsigned kpn = layout.keys_per_node();
  const unsigned chunks_per_node = (kpn + gs - 1) / gs;
  std::uint32_t chunk_steps = 0;
  std::array<gpusim::LaneRow, 32> rows;
  std::array<std::uint64_t, 32> node_base;  // per group, its node's first key
  // Per group, separators <= target. Zeroed: GCC cannot see that the
  // child rule reads only slots an inner level's scan wrote.
  std::array<unsigned, 32> sep_leq{};
  // Per chunk, the walking groups that stop comparing on it. Each entry
  // is cleared as the chunk loop passes it, and the loop passes every
  // entry it set (it ends early only once every group has stopped), so
  // the entries are zero again at each level.
  HARMONIA_CHECK_MSG(chunks_per_node <= kMaxNodeChunks,
                     "a node of " << kpn << " keys at group size " << gs << " has "
                                  << chunks_per_node << " chunks, above "
                                  << kMaxNodeChunks);
  std::array<std::uint32_t, kMaxNodeChunks> stop_mask;
  std::fill_n(stop_mask.begin(), chunks_per_node, 0u);
  const auto group_rows = [&](unsigned nr) {
    return std::span<const gpusim::LaneRow>(rows.data(), nr);
  };

  for (unsigned level = 0; level < levels; ++level) {
    const bool leaf_level = (level + 1 == layout.height);
    // The scan stops at the first key >= target on a leaf (equal is the
    // hit) or the first separator > target above. Slot j is compared in
    // chunk j / gs, so that is the chunk the group stops on; a scan that
    // never stops ends with the node's last chunk.
    // Groups whose node is the one of the group before them, at group
    // size 1: their lanes join that group's chunk rows.
    std::uint32_t same_node = 0;
    for (std::uint32_t rest = walking; rest != 0; rest &= rest - 1) {
      const auto g = static_cast<unsigned>(std::countr_zero(rest));
      node_base[g] = layout.node_key_addr(groups.node[g], 0);
      if (gs == 1 && g > 0 && (walking >> (g - 1) & 1u) != 0 &&
          groups.node[g] == groups.node[g - 1]) {
        same_node |= 1u << g;
      }
      const Key* keys = w.view<Key>(node_base[g], kpn).data();
      const Key t = groups.target[g];
      unsigned j = 0;
      if (leaf_level) {
        while (j < kpn && keys[j] < t) ++j;
        if (j < kpn && keys[j] == t) {
          groups.found |= 1u << g;
          groups.found_slot[g] = j;
        }
      } else {
        while (j < kpn && keys[j] <= t) ++j;
        sep_leq[g] = j;
      }
      stop_mask[std::min(j, kpn - 1) / gs] |= 1u << g;
    }

    // The chunk steps. A chunk covers `lanes` slots (the last one may be
    // short), read by a group's first `lanes` lanes from consecutive
    // addresses: one row per group, or at group size 1 one broadcast row
    // per run of neighbouring loading groups on one node.
    std::uint32_t scanning = walking;  // groups still comparing keys
    for (unsigned chunk = 0; chunk < chunks_per_node; ++chunk) {
      const std::uint32_t loading = early_exit ? scanning : walking;
      if (loading == 0) break;
      const unsigned first_slot = chunk * gs;
      const unsigned lanes = std::min(gs, kpn - first_slot);
      // Loading groups whose lanes join the row before them.
      const std::uint32_t joined = loading & loading << 1 & same_node;
      gpusim::LaneMask mask = 0;
      unsigned nr = 0;
      for (std::uint32_t starts = loading & ~joined; starts != 0; starts &= starts - 1) {
        const auto g = static_cast<unsigned>(std::countr_zero(starts));
        const auto run =
            static_cast<unsigned>(1 + std::countr_one(std::uint64_t{joined} >> (g + 1)));
        // A run of one group is its chunk row; a longer one (group size 1,
        // so lanes == 1) is a broadcast row.
        const unsigned count = run > 1 ? run : lanes;
        mask |= gpusim::group_mask(g * gs, count);
        rows[nr++] = {node_base[g] + first_slot * sizeof(Key), g * gs, count, run > 1};
      }
      scanning &= ~stop_mask[chunk];
      stop_mask[chunk] = 0;
      w.touch(group_rows(nr), sizeof(Key));
      w.compute(mask);  // the SIMT comparison step
      ++chunk_steps;
    }

    if (!leaf_level && walking != 0) {
      // The child rule: one leader-lane u32 load per group (constant
      // memory for Harmonia's top levels, global memory below and for
      // every HB+ level), then index arithmetic.
      gpusim::LaneMask mask = 0;
      unsigned nr = 0;
      for (std::uint32_t rest = walking; rest != 0; rest &= rest - 1) {
        const auto g = static_cast<unsigned>(std::countr_zero(rest));
        mask |= gpusim::lane_bit(g * gs);
        nr = gpusim::push_row(rows, nr,
                              {layout.child_addr(groups.node[g], sep_leq[g]), g * gs, 1});
      }
      std::array<std::uint32_t, 32> loaded;
      w.gather<std::uint32_t>(group_rows(nr), loaded);
      w.compute(mask);  // index arithmetic
      for (std::uint32_t rest = walking; rest != 0; rest &= rest - 1) {
        const auto g = static_cast<unsigned>(std::countr_zero(rest));
        groups.node[g] = Layout::child(loaded[g * gs], sep_leq[g]);
      }
    }
  }
  return chunk_steps;
}

/// Delta-overlay lower bound of the first `nq` groups (defined in
/// search.cpp): the leaders binary-search the sorted patch array in
/// lockstep, and olo[g] receives the first entry >= group g's target.
void overlay_lower_bound(gpusim::WarpCtx& w, const DeltaOverlayImage& ov, unsigned gs,
                         unsigned nq, const WarpGroups& groups,
                         std::array<std::uint32_t, 32>& olo);

/// Delta-overlay probe of the first `nq` groups (defined in search.cpp):
/// an equality probe at each group's overlay_lower_bound. A hit resolves
/// the query: its value, or kNotFound for a tombstone, goes to
/// `out[g * gs]` (the group's leader lane). Returns the hit groups.
std::uint32_t probe_overlay(gpusim::WarpCtx& w, const DeltaOverlayImage& ov, unsigned gs,
                            unsigned nq, const WarpGroups& groups, std::array<Value, 32>& out);

/// A layout with a device-side delta overlay (Harmonia's image); HB+ has
/// none, so its probe compiles away.
template <class Layout>
concept HasOverlay = requires(const Layout& layout) {
  { layout.overlay } -> std::convertible_to<const DeltaOverlayImage&>;
};

/// Runs the lookup kernel over device arrays `queries`/`out_values` of
/// length n on any layout. out_values[i] receives the value or kNotFound.
template <class Layout>
SearchStats lookup_batch(gpusim::Device& device, const Layout& layout,
                         gpusim::DevPtr<Key> queries, std::uint64_t n,
                         gpusim::DevPtr<Value> out_values, const SearchConfig& config) {
  HARMONIA_CHECK(n > 0);
  HARMONIA_CHECK(layout.num_nodes > 0);
  const gpusim::DeviceSpec& spec = device.spec();
  const unsigned warp = spec.warp_size;
  const unsigned gs = resolve_group_size(spec, layout.fanout, config.group_size);
  const unsigned qpw = warp / gs;
  const std::uint64_t num_warps = (n + qpw - 1) / qpw;

  // Warps may run on several host threads: each writes only its own slot.
  std::vector<std::uint32_t> chunk_steps(num_warps);

  auto kernel = [&](gpusim::WarpCtx& w) {
    const std::uint64_t base = w.warp_id() * qpw;
    const unsigned nq = static_cast<unsigned>(std::min<std::uint64_t>(qpw, n - base));
    WarpGroups groups;
    std::array<gpusim::LaneRow, 32> rows;
    std::array<Value, 32> out_vals;  // per leader lane, the query's result
    // Groups that walk the tree (not resolved by the overlay).
    std::uint32_t walking = gpusim::full_mask(nq);

    // Load this warp's queries: the leader lane of each group issues the
    // read; the values then broadcast within the group (register shuffle).
    gpusim::LaneMask leader_mask = 0;
    for (unsigned g = 0; g < nq; ++g) leader_mask |= gpusim::lane_bit(g * gs);
    {
      std::array<Key, 32> qvals;
      w.gather<Key>(gpusim::leader_rows(queries.element_addr(base), sizeof(Key), nq, gs, rows),
                    qvals);
      for (unsigned g = 0; g < nq; ++g) groups.target[g] = qvals[g * gs];
      w.compute(leader_mask);  // broadcast/setup
    }
    for (unsigned g = 0; g < nq; ++g) groups.node[g] = 0;

    if constexpr (HasOverlay<Layout>) {
      if (layout.overlay.count > 0) {
        walking &= ~probe_overlay(w, layout.overlay, gs, nq, groups, out_vals);
      }
    }

    chunk_steps[w.warp_id()] =
        descend(w, layout, gs, config.early_exit, layout.height, walking, groups);

    // Fetch values for hits and write results.
    std::array<Value, 32> vals;
    unsigned nr = 0;
    for (std::uint32_t rest = groups.found; rest != 0; rest &= rest - 1) {
      const auto g = static_cast<unsigned>(std::countr_zero(rest));
      rows[nr++] = {layout.value_addr(groups.node[g], groups.found_slot[g]), g * gs, 1};
    }
    w.gather<Value>(std::span<const gpusim::LaneRow>(rows.data(), nr), vals);
    for (std::uint32_t rest = walking; rest != 0; rest &= rest - 1) {
      const auto g = static_cast<unsigned>(std::countr_zero(rest));
      out_vals[g * gs] = (groups.found & (1u << g)) != 0 ? vals[g * gs] : kNotFound;
    }
    w.scatter<Value>(
        gpusim::leader_rows(out_values.element_addr(base), sizeof(Value), nq, gs, rows),
        std::span<const Value>(out_vals.data(), warp));
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
