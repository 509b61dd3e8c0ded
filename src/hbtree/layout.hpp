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
// Leaf records reuse the child-ref area as a value-region base offset via
// the parallel leaf value array (same convention as Harmonia, so the two
// structures differ only in what the paper says they differ in).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "btree/btree.hpp"
#include "gpusim/device.hpp"

namespace harmonia::hbtree {

using Key = std::uint64_t;
using Value = std::uint64_t;

inline constexpr Key kPadKey = ~Key{0};
inline constexpr std::uint32_t kNoChild = ~std::uint32_t{0};

/// Host-side flattened HB+tree (BFS node order).
class HBTreeHost {
 public:
  static HBTreeHost from_btree(const btree::BTree& tree);

  unsigned fanout() const { return fanout_; }
  unsigned height() const { return height_; }
  std::uint32_t num_nodes() const { return num_nodes_; }
  std::uint32_t first_leaf_index() const { return first_leaf_; }
  unsigned keys_per_node() const { return fanout_ - 1; }

  std::span<const Key> node_keys(std::uint32_t node) const;
  std::span<const std::uint32_t> node_children(std::uint32_t node) const;
  bool is_leaf(std::uint32_t node) const { return node >= first_leaf_; }
  std::span<const Value> value_region() const { return values_; }

  /// Host reference search (tests).
  std::optional<Value> search(Key key) const;

 private:
  unsigned fanout_ = 0;
  unsigned height_ = 0;
  std::uint32_t num_nodes_ = 0;
  std::uint32_t first_leaf_ = 0;
  std::vector<Key> keys_;                 // num_nodes * (fanout-1), padded
  std::vector<std::uint32_t> children_;   // num_nodes * fanout, kNoChild pad
  std::vector<Value> values_;             // num_leaves * (fanout-1)
};

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

  static HBTreeDeviceImage upload(gpusim::Device& device, const HBTreeHost& host);
};

}  // namespace harmonia::hbtree
