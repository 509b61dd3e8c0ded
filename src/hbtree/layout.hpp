// HB+Tree baseline device layout (Shahvarani & Jacobsen, SIGMOD'16 — the
// GPU part, which the paper compares against in §5).
//
// Unlike Harmonia, each node record keeps its *child references* next to
// its keys (Figure 4a): traversal must load the child pointer from global
// memory at every level — the indirection Harmonia's prefix-sum region
// eliminates. Node records are large (~1 KB at fanout 64), nothing lives
// in constant memory, and the whole structure resides in global memory.
//
// Record layout (node stride, 8 B aligned):
//   [ keys: (fanout-1) x u64 | child refs: fanout x u32 (BFS indices) ]
// The records are written from a HarmoniaTree: the same BFS nodes, keys
// and leaf value region, with each node's child references spelled out
// (prefix_sum[node] + c) instead of derived. So the two structures differ
// only in what the paper says they differ in.
#pragma once

#include <cstdint>

#include "gpusim/device.hpp"
#include "harmonia/tree.hpp"

namespace harmonia::hbtree {

/// Child-reference pad: unused slots of internal nodes, every slot of a leaf.
inline constexpr std::uint32_t kNoChild = ~std::uint32_t{0};

/// Device placement: one interleaved node-record array in global memory.
struct HBTreeDeviceImage {
  unsigned fanout = 0;
  unsigned height = 0;
  std::uint32_t num_nodes = 0;
  std::uint32_t first_leaf = 0;
  /// Node record stride in bytes.
  std::uint64_t node_stride = 0;
  gpusim::DevPtr<std::uint8_t> nodes;
  gpusim::DevPtr<Value> value_region;

  unsigned keys_per_node() const { return fanout - 1; }

  std::uint64_t node_key_addr(std::uint32_t node, unsigned slot) const {
    return nodes.addr + node * node_stride + slot * sizeof(Key);
  }
  std::uint64_t child_ref_addr(std::uint32_t node, unsigned child) const {
    return nodes.addr + node * node_stride + keys_per_node() * sizeof(Key) +
           child * sizeof(std::uint32_t);
  }
  std::uint64_t value_addr(std::uint32_t leaf_node, unsigned slot) const {
    return value_region.element_addr(
        static_cast<std::uint64_t>(leaf_node - first_leaf) * keys_per_node() + slot);
  }

  /// Child rule of the shared descend (harmonia/descend.hpp): the leader
  /// lane loads the child reference itself, a 4 B global load per query
  /// per level (the indirection of §2.2).
  std::uint64_t child_addr(std::uint32_t node, unsigned sep_leq) const {
    return child_ref_addr(node, sep_leq);
  }
  static std::uint32_t child(std::uint32_t child_ref, unsigned /*sep_leq*/) {
    return child_ref;
  }

  /// Writes one node record per BFS node of `tree` — its key slots, then
  /// child refs prefix_sum[node] + c for its children and kNoChild
  /// elsewhere — and the leaf value region.
  static HBTreeDeviceImage upload(gpusim::Device& device, const HarmoniaTree& tree);
};

}  // namespace harmonia::hbtree
