#include "harmonia/range.hpp"

#include <array>
#include <numeric>
#include <vector>

#include "common/expect.hpp"
#include "harmonia/descend.hpp"

namespace harmonia {

RangeStats range_batch(gpusim::Device& device, const HarmoniaDeviceImage& image,
                       gpusim::DevPtr<Key> los, gpusim::DevPtr<Key> his, std::uint64_t n,
                       gpusim::DevPtr<Value> out_values,
                       gpusim::DevPtr<std::uint32_t> out_counts,
                       const RangeConfig& config) {
  HARMONIA_CHECK(n > 0);
  HARMONIA_CHECK(config.max_results > 0);
  const unsigned warp = device.spec().warp_size;
  const unsigned kpn = image.keys_per_node();
  // Warps may run on several host threads: each writes only its own slot.
  std::vector<std::uint32_t> results(n);

  auto kernel = [&](gpusim::WarpCtx& w) {
    const std::uint64_t q = w.warp_id();
    std::array<Key, 32> keys;
    // A row of `count` lanes from lane 0: every access of this kernel.
    const auto row = [](std::uint64_t addr, unsigned count) {
      return std::array<gpusim::LaneRow, 1>{{{addr, 0, count}}};
    };

    // Lane 0 loads the bounds; broadcast.
    w.gather<Key>(row(los.element_addr(q), 1), keys);
    const Key lo = keys[0];
    w.gather<Key>(row(his.element_addr(q), 1), keys);
    const Key hi = keys[0];
    w.compute(gpusim::lane_bit(0));

    // Phase 1: point traversal to the leaf containing lo — the shared
    // descend with the whole warp as one thread group, internal levels
    // only.
    WarpGroups groups;
    groups.target[0] = lo;
    groups.node[0] = 0;
    descend(w, image, warp, /*early_exit=*/true, image.height - 1, 1u, groups);
    const std::uint32_t node = groups.node[0];

    // Delta-overlay cursor (incremental updates): lane 0 binary-searches
    // the sorted patch array for the first entry >= lo (the warp is one
    // group); during the leaf scan the cursor merges inline — overlay
    // keys interleave in order, a live entry equal to a base key
    // overrides its value, a tombstone hides it.
    const DeltaOverlayImage& ov = image.overlay;
    std::array<std::uint32_t, 32> olo;
    overlay_lower_bound(w, ov, warp, 1, groups, olo);
    std::uint32_t ocur = olo[0];
    const std::uint32_t oend = ov.count;
    Key okey = kPadKey;
    Value oval = 0;
    std::uint8_t otomb = 0;
    bool ohave = false;
    std::array<Key, 32> okeys{};  // zeroed: GCC cannot see the gather fill lane 0
    // Leader-lane read of the current patch entry (key gather charged;
    // value + tombstone ride the same access step).
    const auto peek_overlay = [&] {
      w.gather<Key>(row(ov.key_addr(ocur), 1), okeys);
      okey = okeys[0];
      oval = device.memory().read<Value>(ov.value_addr(ocur));
      otomb = device.memory().read<std::uint8_t>(ov.tombstone_addr(ocur));
      w.compute(gpusim::lane_bit(0));
      ohave = true;
    };

    // Phase 2: warp-wide linear scan of the leaf level's key slots. The
    // key region is consecutive, so each step is a coalesced 32-key read.
    const std::uint64_t leaf_base = static_cast<std::uint64_t>(node) * kpn;
    const std::uint64_t region_end = static_cast<std::uint64_t>(image.num_nodes) * kpn;
    std::uint32_t count = 0;
    std::array<gpusim::LaneRow, 32> val_rows;
    std::array<Value, 32> vals;
    // Merged results stage in compact lanes and scatter a warp at a time
    // (output addresses are contiguous: one row).
    std::uint64_t out_addr = 0;
    std::array<Value, 32> out_buf;
    unsigned buffered = 0;
    const auto flush_out = [&] {
      if (buffered == 0) return;
      w.scatter<Value>(row(out_addr, buffered), std::span<const Value>(out_buf.data(), warp));
      buffered = 0;
    };
    const auto emit = [&](Value v) {
      if (buffered == 0) out_addr = out_values.element_addr(q * config.max_results + count);
      out_buf[buffered] = v;
      ++buffered;
      ++count;
      if (buffered == warp) flush_out();
    };

    // The node and slot of the cursor's lane j advance with it, one lane
    // at a time (no division per lane).
    std::uint32_t slot_node = node;
    unsigned slot = 0;
    bool past_hi = false;
    for (std::uint64_t cursor = leaf_base;
         !past_hi && cursor < region_end && count < config.max_results;
         cursor += warp) {
      const auto step = static_cast<unsigned>(
          std::min<std::uint64_t>(warp, region_end - cursor));
      w.gather<Key>(row(image.key_region.element_addr(cursor), step), keys);
      w.compute(gpusim::full_mask(step));

      // In-range lanes prefetch their value-region slot. The value
      // region runs parallel to the key region, so each run of in-range
      // lanes reads consecutive values: one row per run.
      unsigned runs = 0;
      bool in_run = false;
      for (unsigned j = 0; j < step; ++j) {
        // Real keys ascend across the whole leaf level, so no key past the
        // first one above hi is in range; kPadKey is a node's tail pad.
        const Key k = keys[j];
        const bool hit = k != kPadKey && k >= lo && k <= hi;
        if (hit && in_run) {
          ++val_rows[runs - 1].count;
        } else if (hit) {
          val_rows[runs++] = {image.value_addr(slot_node, slot), j, 1};
        }
        in_run = hit;
        if (++slot == kpn) {
          slot = 0;
          ++slot_node;
        }
      }
      w.gather<Value>(std::span<const gpusim::LaneRow>(val_rows.data(), runs), vals);

      for (unsigned j = 0; j < step; ++j) {
        const Key k = keys[j];
        if (k == kPadKey) continue;
        if (k > hi) {
          past_hi = true;
          break;
        }
        if (k < lo) continue;
        // Overlay entries strictly below this base key go first.
        while (ocur < oend && count < config.max_results) {
          if (!ohave) peek_overlay();
          if (okey >= k) break;
          if (!otomb) emit(oval);
          ++ocur;
          ohave = false;
        }
        if (count >= config.max_results) break;
        if (ocur < oend) {
          if (!ohave) peek_overlay();
          if (okey == k) {  // patch shadows the base entry
            if (!otomb) emit(oval);
            ++ocur;
            ohave = false;
            continue;
          }
        }
        emit(vals[j]);
        if (count >= config.max_results) break;
      }
    }
    // Drain overlay entries past the last base key (or past hi's
    // predecessor when the base scan broke early).
    while (ocur < oend && count < config.max_results) {
      if (!ohave) peek_overlay();
      if (okey > hi) break;
      if (!otomb) emit(oval);
      ++ocur;
      ohave = false;
    }
    flush_out();

    // Lane 0 writes the count.
    const std::array<std::uint32_t, 1> cnt_val{count};
    results[q] = count;
    w.scatter<std::uint32_t>(row(out_counts.element_addr(q), 1), cnt_val);
  };

  RangeStats stats;
  stats.metrics = device.launch(n, kernel);
  stats.queries = n;
  stats.results = std::accumulate(results.begin(), results.end(), std::uint64_t{0});
  return stats;
}

}  // namespace harmonia
