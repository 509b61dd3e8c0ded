// Regular (pointer-based) B+tree on the host.
//
// This is the "traditional regular B+tree" of §2.2/Figure 4(a): every node
// holds keys plus child references; all values live in the leaves, which
// are linked for range scans. It serves two roles in the reproduction:
// the HB+Tree baseline's host tree, which HB+ updates on the CPU and
// serializes its device image from, and the correctness oracle in tests.
// Harmonia trees skip it: HarmoniaTree::build writes the flat regions
// straight from sorted entries, by the same shape plan (plan_leaves).
//
// Separator convention: for an internal node, keys[i] is <= every key in
// children[i+1] and > every key in children[i]; a lookup descends into
// children[upper_bound(keys, target)] — i.e. the child index equals the
// number of separators <= target (Equation 1 uses the same child index).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

namespace harmonia::btree {

using Key = std::uint64_t;
using Value = std::uint64_t;

struct Node {
  bool leaf = true;
  std::vector<Key> keys;
  std::vector<std::unique_ptr<Node>> children;  // internal nodes only
  std::vector<Value> values;                    // leaf nodes only
  Node* next = nullptr;                         // leaf chain
};

/// A key/value pair returned by range scans.
struct Entry {
  Key key;
  Value value;
};

// The one bulk-load shape rule, as a pure plan: how many entries each
// leaf holds, then how many children each internal node holds, level by
// level. Nodes are cut at a fill-derived target, left to right. A short
// tail (below the minimum occupancy) is absorbed into the node before it
// if that fits within capacity, or else the two split the remainder
// evenly. BTree::bulk_load builds pointer nodes from the plan,
// HarmoniaTree::build writes the flat regions from it, and the batch
// updater's rebuild lays out its leaf list with it, so rebuilding
// unchanged leaves reproduces the bulk-loaded tree. `fanout` (>= 4) is a
// node's max child count; `fill_factor`, in (0, 1], a leaf's target
// occupancy.

/// Entry count of each leaf over `entries` sorted entries.
std::vector<std::uint32_t> plan_leaves(std::size_t entries, unsigned fanout, double fill_factor);

/// Child counts of each internal level over `leaves` leaves, root level
/// first; empty when a single leaf is the whole tree.
std::vector<std::vector<std::uint32_t>> plan_internal_levels(std::size_t leaves, unsigned fanout,
                                                             double fill_factor);

class BTree {
 public:
  /// `fanout` is the max child count of a node (so max keys = fanout-1).
  explicit BTree(unsigned fanout);

  BTree(BTree&&) noexcept = default;
  BTree& operator=(BTree&&) noexcept = default;

  unsigned fanout() const { return fanout_; }
  std::uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  unsigned height() const;  // number of levels; empty tree has height 0

  /// Replaces the contents with `entries` (sorted by key, distinct), packing
  /// leaves to `fill_factor` of capacity. Random-insert B+trees average
  /// ~69% full (ln 2), which is the default.
  void bulk_load(std::span<const Entry> entries, double fill_factor = 0.69);

  /// Point lookup.
  std::optional<Value> search(Key key) const;

  /// Inserts a new key or overwrites the value of an existing one.
  /// Returns true if the key was new.
  bool insert(Key key, Value value);

  /// Updates an existing key's value; returns false if absent.
  bool update(Key key, Value value);

  /// Removes a key; returns false if absent.
  bool erase(Key key);

  /// All entries with lo <= key <= hi, in order, up to `limit` (0 = all).
  std::vector<Entry> range(Key lo, Key hi, std::size_t limit = 0) const;

  /// Invariant checker (tests): throws ContractViolation on corruption.
  void validate() const;

  /// Breadth-first node levels, root first. Level vectors order nodes
  /// left-to-right — exactly the order device serializers lay keys out in.
  std::vector<std::vector<const Node*>> levels() const;

  const Node* root() const { return root_.get(); }

  /// Leftmost leaf (head of the leaf chain).
  const Node* first_leaf() const;

 private:
  std::size_t max_keys() const { return fanout_ - 1; }
  std::size_t min_keys() const { return max_keys() / 2; }

  const Node* descend_to_leaf(Key key) const;

  struct SplitResult {
    Key separator;
    std::unique_ptr<Node> right;
  };
  /// Inserts into the subtree; returns a split if `node` overflowed.
  std::optional<SplitResult> insert_rec(Node* node, Key key, Value value, bool* inserted);
  /// Erases from the subtree; returns true if `node` underflowed.
  bool erase_rec(Node* node, Key key, bool* erased);
  /// Fixes the underflowed child `idx` of `parent` by borrow or merge.
  void rebalance_child(Node* parent, std::size_t idx);

  void validate_rec(const Node* node, unsigned depth, unsigned leaf_depth,
                    std::optional<Key> lo, std::optional<Key> hi) const;

  unsigned fanout_;
  std::unique_ptr<Node> root_;
  std::uint64_t size_ = 0;
};

/// `sorted_keys`, each paired with value_for_key.
std::vector<Entry> entries_for(std::span<const Key> sorted_keys);

/// Convenience: builds a bulk-loaded tree with values = hash of key.
BTree make_tree(std::span<const Key> sorted_keys, unsigned fanout,
                double fill_factor = 0.69);

/// The value every convenience builder associates with `key` (tests use it
/// to verify lookups end-to-end without carrying a map around).
Value value_for_key(Key key);

}  // namespace harmonia::btree
