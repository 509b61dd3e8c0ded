// The Harmonia tree structure (§3.1, Figure 4b): a breadth-first *key
// region* of fixed-size node records and a *prefix-sum child region*.
//
// Key region: node i occupies slots [i*(fanout-1), (i+1)*(fanout-1)) of a
// flat key array, padded with kPadKey beyond the node's real keys. Nodes
// are laid out level by level, left to right (BFS), so each level — and in
// particular the leaf level — is a consecutive, sorted array (which is what
// makes range scans a linear walk).
//
// Child region: prefix_sum[i] is the BFS index of node i's first child
// (Equation 1: child_idx = prefix_sum[node] + i - 1, with 1-based i; we use
// the 0-based form child = prefix_sum[node] + separators_leq_target).
// prefix_sum has num_nodes + 1 entries so a node's child count is
// prefix_sum[i+1] - prefix_sum[i]; leaves get prefix_sum[i] = num_nodes,
// keeping the difference property intact across the internal/leaf boundary.
//
// Values: a parallel value region for the leaf level, slot-aligned with the
// leaf keys.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <vector>

#include "btree/btree.hpp"

namespace harmonia {

using Key = std::uint64_t;
using Value = std::uint64_t;

/// Pad for unused key slots; larger than any valid key, so padded slots
/// never count as "separator <= target" and never match an equality probe.
inline constexpr Key kPadKey = ~Key{0};

/// Serving-layer sidecar carried by a v2/v3 tree image: everything beyond
/// the raw regions a cold start must restore to resume serving exactly
/// where the crashed process stopped — the bulk-load/compaction fill
/// target (the gapped key region's headroom) and the delta-overlay
/// contents (patched keys and tombstones not yet folded into the base).
/// v1 images decode with the defaults below (no overlay, default fill).
struct TreeSnapshotExtras {
  struct OverlayRecord {
    Key key = 0;
    Value value = 0;
    std::uint8_t tombstone = 0;  // 1 = key hidden, 0 = value shadows base
  };

  double fill_factor = 0.69;
  /// Strictly ascending by key; never contains kPadKey.
  std::vector<OverlayRecord> overlay;
};

/// Read-only view of a tree's three regions, with the one host
/// implementation of Equation-1 routing and the leaf-level walks: over a
/// HarmoniaTree's own regions, or over the committed device image
/// (HarmoniaIndex::committed()).
struct TreeView {
  unsigned height = 0;
  unsigned keys_per_node = 0;
  std::uint32_t num_nodes = 0;
  std::uint32_t first_leaf = 0;
  std::span<const Key> keys;
  std::span<const std::uint32_t> prefix_sum;
  std::span<const Value> values;

  /// Leaf BFS index whose key range contains `key`.
  std::uint32_t find_leaf(Key key) const;
  std::optional<Value> search(Key key) const;
  /// Range scan over the consecutive leaf level (§3.2.1): locate the
  /// first leaf slot >= lo, then walk the key region linearly.
  std::vector<btree::Entry> range(Key lo, Key hi, std::size_t limit = 0) const;
};

class HarmoniaTree {
 public:
  /// Builds the tree of `sorted` (non-empty, strictly ascending keys)
  /// without a pointer tree: the flat regions are written straight from
  /// the span, in the shape btree::plan_leaves and plan_internal_levels
  /// give, so the result is region for region what from_btree makes of
  /// BTree::bulk_load. A non-empty `leaf_sizes` gives the leaf level
  /// instead (leaf l holds the next leaf_sizes[l] entries, 1 to fanout-1):
  /// the batch updater's rebuild lays out its surviving leaves and
  /// auxiliary nodes that way.
  static HarmoniaTree build(std::span<const btree::Entry> sorted, unsigned fanout,
                            double fill_factor = 0.69,
                            std::span<const std::uint32_t> leaf_sizes = {});

  /// Serializes a regular B+tree (Figure 4a -> 4b): same nodes, same key
  /// placement, child pointers replaced by the prefix-sum array. The HB+
  /// baseline writes its device image from this.
  static HarmoniaTree from_btree(const btree::BTree& tree);

  unsigned fanout() const { return fanout_; }
  unsigned height() const { return static_cast<unsigned>(level_start_.size()); }
  std::uint32_t num_nodes() const { return num_nodes_; }
  std::uint32_t num_leaves() const { return num_nodes_ - first_leaf_; }
  std::uint32_t first_leaf_index() const { return first_leaf_; }
  std::uint64_t num_keys() const { return num_keys_; }
  unsigned keys_per_node() const { return fanout_ - 1; }

  /// BFS index of the first node of `level` (root = level 0).
  std::uint32_t level_start(unsigned level) const;

  std::span<const Key> key_region() const { return key_region_; }
  std::span<const std::uint32_t> prefix_sum() const { return prefix_sum_; }
  std::span<const Value> value_region() const { return value_region_; }

  /// Keys of node i (all fanout-1 slots, pads included).
  std::span<const Key> node_keys(std::uint32_t node) const;
  /// Real (non-pad) key count of node i.
  unsigned node_key_count(std::uint32_t node) const;
  std::uint32_t child_count(std::uint32_t node) const;
  bool is_leaf(std::uint32_t node) const { return node >= first_leaf_; }

  /// Value slot (index into value_region) for leaf `node`, key slot `slot`.
  std::uint64_t value_slot(std::uint32_t node, unsigned slot) const;

  TreeView view() const;

  /// Host-side point lookup — the reference implementation the device
  /// kernels are tested against — and range scan (TreeView's walks).
  std::optional<Value> search(Key key) const { return view().search(key); }
  std::vector<btree::Entry> range(Key lo, Key hi, std::size_t limit = 0) const {
    return view().range(lo, hi, limit);
  }
  std::uint32_t find_leaf(Key key) const { return view().find_leaf(key); }

  /// Structural invariant checker; throws ContractViolation on corruption.
  void validate() const;

  // --- In-place leaf mutation (the batch updater's fine-grained path:
  // §3.2.2 updates "without split or merge"; separators above the leaf
  // stay valid because routing bounds are unaffected). ---

  /// Overwrites the value of `key` in `leaf`; false if the key is absent.
  bool leaf_update_inplace(std::uint32_t leaf, Key key, Value value);
  /// Inserts (key, value) into `leaf`, shifting slots right; false if the
  /// leaf is full (caller must take the split path) or the key exists
  /// (overwritten, still returns true).
  bool leaf_insert_inplace(std::uint32_t leaf, Key key, Value value);
  /// Removes `key` from `leaf`, shifting slots left; false if absent.
  /// The caller must not empty a leaf (merge path handles that).
  bool leaf_erase_inplace(std::uint32_t leaf, Key key);

  /// Entries currently stored in `leaf` (sorted).
  std::vector<btree::Entry> leaf_entries(std::uint32_t leaf) const;

  // --- Persistence: versioned binary image with a checksum trailer.
  // A database/file-system index must survive restarts; the format stores
  // the regions verbatim, so load is one validate() away from use.
  // save writes format v3 (docs/persistence_format.md): the regions, then
  // a TreeSnapshotExtras section, sealed by an XXH64 trailer. v2 images
  // (the same layout under an FNV-1a trailer) and v1 images (no extras
  // section; extras take their defaults) still load, and re-save as v3.
  // Every header field and section length is validated before use, so a
  // truncated or bit-flipped image always throws ContractViolation —
  // load never partially constructs a tree. ---
  void save(std::ostream& os) const;
  void save(std::ostream& os, const TreeSnapshotExtras& extras) const;
  static HarmoniaTree load(std::istream& is, TreeSnapshotExtras* extras = nullptr);

 private:
  HarmoniaTree() = default;
  /// Sizes every region for levels of `level_sizes` nodes (root first),
  /// all slots padded and every prefix sum a leaf's.
  HarmoniaTree(unsigned fanout, std::span<const std::size_t> level_sizes, std::uint64_t num_keys);

  unsigned fanout_ = 0;
  std::uint32_t num_nodes_ = 0;
  std::uint32_t first_leaf_ = 0;
  std::uint64_t num_keys_ = 0;
  std::vector<std::uint32_t> level_start_;  // BFS index of each level's first node
  std::vector<Key> key_region_;
  std::vector<std::uint32_t> prefix_sum_;  // num_nodes_ + 1 entries
  std::vector<Value> value_region_;        // num_leaves * (fanout-1) slots
};

}  // namespace harmonia
