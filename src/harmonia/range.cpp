#include "harmonia/range.hpp"

#include <array>
#include <numeric>
#include <vector>

#include "common/expect.hpp"

namespace harmonia {

using gpusim::LaneMask;

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
    std::array<std::uint64_t, 32> addrs{};
    std::array<Key, 32> keys{};

    // Lane 0 loads the bounds; broadcast.
    addrs[0] = los.element_addr(q);
    w.gather<Key>(gpusim::lane_bit(0), std::span(addrs.data(), warp), keys);
    const Key lo = keys[0];
    addrs[0] = his.element_addr(q);
    w.gather<Key>(gpusim::lane_bit(0), std::span(addrs.data(), warp), keys);
    const Key hi = keys[0];
    w.compute(gpusim::lane_bit(0));

    // Phase 1: point traversal to the leaf containing lo (whole warp as
    // one thread group; a warp-wide chunk scan per level).
    std::uint32_t node = 0;
    for (unsigned level = 0; level + 1 < image.height; ++level) {
      unsigned sep_leq = 0;
      bool done = false;
      for (unsigned chunk = 0; !done && chunk * warp < kpn; ++chunk) {
        LaneMask mask = 0;
        for (unsigned j = 0; j < warp; ++j) {
          const unsigned slot = chunk * warp + j;
          if (slot >= kpn) break;
          mask |= gpusim::lane_bit(j);
          addrs[j] = image.node_key_addr(node, slot);
        }
        w.gather<Key>(mask, std::span(addrs.data(), warp), keys);
        w.compute(mask);
        for (unsigned j = 0; j < warp && chunk * warp + j < kpn; ++j) {
          if (keys[j] <= lo) {
            ++sep_leq;
          } else {
            done = true;
            break;
          }
        }
      }
      std::array<std::uint32_t, 32> ps{};
      addrs[0] = image.ps_addr(node);
      w.gather<std::uint32_t>(gpusim::lane_bit(0), std::span(addrs.data(), warp), ps);
      w.compute(gpusim::lane_bit(0));
      node = ps[0] + sep_leq;
    }

    // Delta-overlay cursor (incremental updates): lane 0 binary-searches
    // the sorted patch array for the first entry >= lo; during the leaf
    // scan the cursor merges inline — overlay keys interleave in order,
    // a live entry equal to a base key overrides its value, a tombstone
    // hides it.
    const DeltaOverlayImage& ov = image.overlay;
    std::uint32_t ocur = 0;
    const std::uint32_t oend = ov.count;
    Key okey = kPadKey;
    Value oval = 0;
    std::uint8_t otomb = 0;
    bool ohave = false;
    std::array<Key, 32> okeys{};
    if (oend > 0) {
      std::uint32_t blo = 0;
      std::uint32_t bhi = oend;
      while (blo < bhi) {
        const std::uint32_t mid = (blo + bhi) / 2;
        addrs[0] = ov.key_addr(mid);
        w.gather<Key>(gpusim::lane_bit(0), std::span(addrs.data(), warp), okeys);
        w.compute(gpusim::lane_bit(0));
        if (okeys[0] < lo) {
          blo = mid + 1;
        } else {
          bhi = mid;
        }
      }
      ocur = blo;
    }
    // Leader-lane read of the current patch entry (key gather charged;
    // value + tombstone ride the same access step).
    const auto peek_overlay = [&] {
      addrs[0] = ov.key_addr(ocur);
      w.gather<Key>(gpusim::lane_bit(0), std::span(addrs.data(), warp), okeys);
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
    std::array<std::uint64_t, 32> val_addrs{};
    std::array<Value, 32> vals{};
    // Merged results stage in compact lanes and scatter a warp at a time
    // (output addresses are contiguous, so the writes stay coalesced).
    std::array<std::uint64_t, 32> out_addrs{};
    std::array<Value, 32> out_buf{};
    unsigned buffered = 0;
    const auto flush_out = [&] {
      if (buffered == 0) return;
      w.scatter<Value>(gpusim::full_mask(buffered), std::span(out_addrs.data(), warp),
                       std::span<const Value>(out_buf.data(), warp));
      buffered = 0;
    };
    const auto emit = [&](Value v) {
      out_addrs[buffered] = out_values.element_addr(q * config.max_results + count);
      out_buf[buffered] = v;
      ++buffered;
      ++count;
      if (buffered == warp) flush_out();
    };

    bool past_hi = false;
    for (std::uint64_t cursor = leaf_base;
         !past_hi && cursor < region_end && count < config.max_results;
         cursor += warp) {
      const auto step = static_cast<unsigned>(
          std::min<std::uint64_t>(warp, region_end - cursor));
      LaneMask mask = gpusim::full_mask(step);
      for (unsigned j = 0; j < step; ++j) addrs[j] = image.key_region.element_addr(cursor + j);
      w.gather<Key>(mask, std::span(addrs.data(), warp), keys);
      w.compute(mask);

      // In-range lanes prefetch their value-region slot (addresses
      // parallel to the key region, so this stays coalesced too).
      LaneMask hit = 0;
      for (unsigned j = 0; j < step; ++j) {
        const Key k = keys[j];
        if (k == kPadKey) continue;  // node tail pad
        if (k > hi) break;
        if (k >= lo) {
          hit |= gpusim::lane_bit(j);
          const std::uint64_t slot_node = (cursor + j) / kpn;
          const auto slot = static_cast<unsigned>((cursor + j) % kpn);
          val_addrs[j] = image.value_addr(static_cast<std::uint32_t>(slot_node), slot);
        }
      }
      if (hit != 0) w.gather<Value>(hit, std::span(val_addrs.data(), warp), vals);

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
    std::array<std::uint64_t, 32> cnt_addr{};
    std::array<std::uint32_t, 32> cnt_val{};
    cnt_addr[0] = out_counts.element_addr(q);
    cnt_val[0] = count;
    results[q] = count;
    w.scatter<std::uint32_t>(gpusim::lane_bit(0), std::span(cnt_addr.data(), warp),
                             std::span<const std::uint32_t>(cnt_val.data(), warp));
  };

  RangeStats stats;
  stats.metrics = device.launch(n, kernel);
  stats.queries = n;
  stats.results = std::accumulate(results.begin(), results.end(), std::uint64_t{0});
  return stats;
}

}  // namespace harmonia
