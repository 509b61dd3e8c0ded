// Differential test of the shared descend (harmonia/descend.hpp) against a
// chunk-by-chunk reference scan: each chunk step gathers a group's keys
// and compares them, the way the kernel reads a node on the device. The
// descend reads each group's outcome from the node in place and accounts
// the same loads; both must return the same nodes, hits and chunk steps
// and leave the same metrics, cache state and trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "btree/btree.hpp"
#include "common/rng.hpp"
#include "common/xxhash64.hpp"
#include "harmonia/descend.hpp"
#include "harmonia/index.hpp"
#include "hbtree/index.hpp"
#include "queries/workload.hpp"

namespace harmonia {
namespace {

gpusim::DeviceSpec test_spec() {
  auto spec = gpusim::titan_v();
  spec.num_sms = 4;
  spec.global_mem_bytes = 64 << 20;
  return spec;
}

/// The chunk-by-chunk scan: per chunk one row per loading group gathers
/// its keys, and each scanning group compares them until its boundary.
template <class Layout>
std::uint32_t reference_descend(gpusim::WarpCtx& w, const Layout& layout, unsigned gs,
                                bool early_exit, unsigned levels, std::uint32_t walking,
                                WarpGroups& groups) {
  const unsigned kpn = layout.keys_per_node();
  const unsigned chunks_per_node = (kpn + gs - 1) / gs;
  std::uint32_t chunk_steps = 0;
  std::array<gpusim::LaneRow, 32> rows;
  std::array<Key, 32> lane_keys;
  std::array<std::uint64_t, 32> node_base;
  std::array<unsigned, 32> sep_leq{};
  for (unsigned level = 0; level < levels; ++level) {
    const bool leaf_level = (level + 1 == layout.height);
    std::uint32_t scanning = walking;
    for (unsigned g = 0; g < 32; ++g) {
      if ((walking >> g & 1u) == 0) continue;
      sep_leq[g] = 0;
      node_base[g] = layout.node_key_addr(groups.node[g], 0);
    }
    for (unsigned chunk = 0; chunk < chunks_per_node; ++chunk) {
      const std::uint32_t loading = early_exit ? scanning : walking;
      if (loading == 0) break;
      const unsigned first_slot = chunk * gs;
      const unsigned lanes = std::min(gs, kpn - first_slot);
      const bool last_chunk = chunk + 1 == chunks_per_node;
      gpusim::LaneMask mask = 0;
      unsigned nr = 0;
      for (unsigned g = 0; g < 32; ++g) {
        if ((loading >> g & 1u) == 0) continue;
        mask |= gpusim::group_mask(g * gs, lanes);
        rows[nr++] = {node_base[g] + first_slot * sizeof(Key), g * gs, lanes};
      }
      w.gather<Key>(std::span<const gpusim::LaneRow>(rows.data(), nr), lane_keys);
      w.compute(mask);
      ++chunk_steps;
      for (unsigned g = 0; g < 32; ++g) {
        if ((scanning >> g & 1u) == 0) continue;
        const Key t = groups.target[g];
        const Key* keys = &lane_keys[g * gs];
        unsigned j = 0;
        if (leaf_level) {
          while (j < lanes && keys[j] < t) ++j;
          if (j < lanes && keys[j] == t) {
            groups.found |= 1u << g;
            groups.found_slot[g] = first_slot + j;
          }
        } else {
          while (j < lanes && keys[j] <= t) ++j;
          sep_leq[g] += j;
        }
        if (j < lanes || last_chunk) scanning &= ~(1u << g);
      }
    }
    if (!leaf_level && walking != 0) {
      gpusim::LaneMask mask = 0;
      unsigned nr = 0;
      for (unsigned g = 0; g < 32; ++g) {
        if ((walking >> g & 1u) == 0) continue;
        mask |= gpusim::lane_bit(g * gs);
        rows[nr++] = {layout.child_addr(groups.node[g], sep_leq[g]), g * gs, 1};
      }
      std::array<std::uint32_t, 32> loaded;
      w.gather<std::uint32_t>(std::span<const gpusim::LaneRow>(rows.data(), nr), loaded);
      w.compute(mask);
      for (unsigned g = 0; g < 32; ++g) {
        if ((walking >> g & 1u) == 0) continue;
        groups.node[g] = Layout::child(loaded[g * gs], sep_leq[g]);
      }
    }
  }
  return chunk_steps;
}

/// What one run of a descend over a target list leaves behind.
struct Outcome {
  std::vector<std::uint32_t> chunk_steps;  // per warp
  std::vector<std::uint32_t> nodes;        // per target, its leaf
  std::vector<Value> values;               // per target, kNotFound on a miss
  gpusim::KernelMetrics metrics;
  std::uint64_t trace_digest = 0;
  std::size_t trace_events = 0;
};

/// Descends every target through the whole tree, `gs` lanes per group,
/// then gathers the hits' values, with the caches flushed and the trace
/// on. `Descend` is descend or reference_descend.
template <class Layout, class Descend>
Outcome run(gpusim::Device& dev, const Layout& layout, const std::vector<Key>& targets,
            unsigned gs, bool early_exit, Descend&& descend_fn) {
  const unsigned qpw = dev.spec().warp_size / gs;
  const std::uint64_t warps = (targets.size() + qpw - 1) / qpw;
  Outcome out;
  out.chunk_steps.resize(warps);
  out.nodes.resize(targets.size());
  out.values.resize(targets.size());
  dev.flush_caches();
  dev.trace().enable(1 << 22);
  out.metrics = dev.launch(warps, [&](gpusim::WarpCtx& w) {
    const std::uint64_t base = w.warp_id() * qpw;
    const auto nq = static_cast<unsigned>(std::min<std::uint64_t>(qpw, targets.size() - base));
    WarpGroups groups;
    for (unsigned g = 0; g < nq; ++g) {
      groups.target[g] = targets[base + g];
      groups.node[g] = 0;
    }
    const std::uint32_t walking = gpusim::full_mask(nq);
    out.chunk_steps[w.warp_id()] =
        descend_fn(w, layout, gs, early_exit, layout.height, walking, groups);
    std::array<gpusim::LaneRow, 32> rows;
    unsigned nr = 0;
    for (unsigned g = 0; g < nq; ++g) {
      if ((groups.found >> g & 1u) == 0) continue;
      rows[nr++] = {layout.value_addr(groups.node[g], groups.found_slot[g]), g * gs, 1};
    }
    std::array<Value, 32> vals;
    w.gather<Value>(std::span<const gpusim::LaneRow>(rows.data(), nr), vals);
    for (unsigned g = 0; g < nq; ++g) {
      out.nodes[base + g] = groups.node[g];
      out.values[base + g] = (groups.found >> g & 1u) != 0 ? vals[g * gs] : kNotFound;
    }
  });
  EXPECT_EQ(dev.trace().dropped(), 0u);
  out.trace_events = dev.trace().events().size();
  std::ostringstream os;
  dev.trace().dump(os);
  const std::string dump = os.str();
  Xxh64 h;
  h.update(dump.data(), dump.size());
  out.trace_digest = h.digest();
  dev.trace().disable();
  dev.trace().clear();
  return out;
}

void expect_same(const Outcome& got, const Outcome& want, const std::string& what) {
  EXPECT_EQ(got.chunk_steps, want.chunk_steps) << what;
  EXPECT_EQ(got.nodes, want.nodes) << what;
  EXPECT_EQ(got.values, want.values) << what;
  const gpusim::KernelMetrics& a = got.metrics;
  const gpusim::KernelMetrics& b = want.metrics;
  EXPECT_EQ(a.warps, b.warps) << what;
  EXPECT_EQ(a.steps, b.steps) << what;
  EXPECT_EQ(a.coherent_steps, b.coherent_steps) << what;
  EXPECT_EQ(a.loads, b.loads) << what;
  EXPECT_EQ(a.divergent_loads, b.divergent_loads) << what;
  EXPECT_EQ(a.transactions, b.transactions) << what;
  EXPECT_EQ(a.dram_transactions, b.dram_transactions) << what;
  EXPECT_EQ(a.l2_hits, b.l2_hits) << what;
  EXPECT_EQ(a.readonly_hits, b.readonly_hits) << what;
  EXPECT_EQ(a.const_hits, b.const_hits) << what;
  EXPECT_EQ(a.sm_compute_cycles, b.sm_compute_cycles) << what;
  EXPECT_EQ(a.sm_mem_cycles, b.sm_mem_cycles) << what;
  EXPECT_EQ(a.sm_resident_warps, b.sm_resident_warps) << what;
  EXPECT_EQ(got.trace_events, want.trace_events) << what;
  EXPECT_EQ(got.trace_digest, want.trace_digest) << what;
}

/// Every separator of the inner nodes, each one less and one more, keys
/// absent from the tree, the smallest and largest keys and the ends of
/// the key space.
std::vector<Key> boundary_targets(const HarmoniaTree& tree, const std::vector<Key>& keys,
                                  std::uint64_t seed) {
  std::vector<Key> targets;
  for (std::uint32_t node = 0; node < tree.first_leaf_index(); ++node) {
    for (const Key k : tree.node_keys(node)) {
      if (k == kPadKey) continue;
      targets.insert(targets.end(), {k - 1, k, k + 1});
    }
  }
  const std::vector<Key> missing = queries::make_missing_keys(keys, 300, seed);
  targets.insert(targets.end(), missing.begin(), missing.end());
  Xoshiro256 rng(seed);
  for (unsigned i = 0; i < 300; ++i) targets.push_back(keys[rng.next_below(keys.size())]);
  targets.insert(targets.end(), {keys.front(), keys.back(), keys.back() + 1, 0, ~Key{0} - 1});
  return targets;
}

class DescendProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(DescendProperty, MatchesChunkByChunkReference) {
  const unsigned fanout = GetParam();
  Xoshiro256 rng(fanout * 7919);
  for (const std::uint64_t n : {std::uint64_t{200} + rng.next_below(300),
                                std::uint64_t{2000} + rng.next_below(3000)}) {
    const std::vector<Key> keys = queries::make_tree_keys(n, fanout + n);
    std::vector<btree::Entry> entries;
    for (const Key k : keys) entries.push_back({k, btree::value_for_key(k)});

    gpusim::Device dev(test_spec());
    IndexOptions options;
    options.fanout = fanout;
    HarmoniaIndex index = HarmoniaIndex::build(dev, entries, options);
    gpusim::Device hb_dev(test_spec());
    hbtree::HBTreeIndex hb(hb_dev, btree::make_tree(keys, fanout));

    std::vector<Key> shuffled = boundary_targets(index.tree(), keys, n);
    for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
      std::swap(shuffled[i], shuffled[rng.next_below(i + 1)]);
    }
    std::vector<Key> sorted = shuffled;
    std::sort(sorted.begin(), sorted.end());

    const auto shared = [](auto& w, const auto& layout, unsigned gs, bool ee, unsigned levels,
                           std::uint32_t walking, WarpGroups& groups) {
      return descend(w, layout, gs, ee, levels, walking, groups);
    };
    const auto reference = [](auto& w, const auto& layout, unsigned gs, bool ee,
                              unsigned levels, std::uint32_t walking, WarpGroups& groups) {
      return reference_descend(w, layout, gs, ee, levels, walking, groups);
    };
    for (unsigned gs = 1; gs <= 32; gs *= 2) {
      for (const bool early_exit : {true, false}) {
        for (const bool is_sorted : {true, false}) {
          const std::vector<Key>& targets = is_sorted ? sorted : shuffled;
          const std::string what = "fanout " + std::to_string(fanout) + " keys " +
                                   std::to_string(n) + " gs " + std::to_string(gs) +
                                   (early_exit ? " early exit" : " full scan") +
                                   (is_sorted ? " sorted" : " shuffled");
          const Outcome got = run(dev, index.image(), targets, gs, early_exit, shared);
          const Outcome want = run(dev, index.image(), targets, gs, early_exit, reference);
          expect_same(got, want, what);
          for (std::size_t i = 0; i < targets.size(); ++i) {
            const auto host = index.search_host(targets[i]);
            ASSERT_EQ(got.values[i], host ? *host : kNotFound) << what << " target " << i;
          }
          const Outcome hb_got = run(hb_dev, hb.image(), targets, gs, early_exit, shared);
          const Outcome hb_want = run(hb_dev, hb.image(), targets, gs, early_exit, reference);
          expect_same(hb_got, hb_want, what + " (HB+)");
          ASSERT_EQ(hb_got.values, got.values) << what;
          if (HasFailure()) return;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fanouts, DescendProperty, ::testing::Values(16u, 33u, 64u, 128u));

}  // namespace
}  // namespace harmonia
