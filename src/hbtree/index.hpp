// HBTreeIndex — baseline facade: a CPU B+tree (the HB+ host structure)
// plus its node-based device image. Search runs the shared descend
// (harmonia/descend.hpp) on the HB+ layout with fanout-wide groups and no
// early exit: full-node key comparisons (the "useless comparisons" of
// §4.2) and a child-reference load at every level. Batch updates run on
// the CPU tree, which is then flattened (HarmoniaTree::from_btree) and
// re-uploaded as node records (§3.2.2 / Figure 14 comparison).
#pragma once

#include <span>

#include "btree/btree.hpp"
#include "gpusim/device.hpp"
#include "harmonia/index.hpp"
#include "hbtree/layout.hpp"
#include "queries/batch.hpp"

namespace harmonia::hbtree {

class HBTreeIndex {
 public:
  HBTreeIndex(gpusim::Device& device, btree::BTree tree);

  static HBTreeIndex build(gpusim::Device& device, std::span<const btree::Entry> entries,
                           unsigned fanout, double fill_factor = 0.69);

  const btree::BTree& tree() const { return tree_; }
  const HBTreeDeviceImage& image() const { return image_; }

  /// Fanout-wide groups and no PSA: the sort fields stay zero.
  HarmoniaIndex::QueryResult search(std::span<const Key> batch);

  /// CPU batch update on the pointer tree (apply_seconds), then the
  /// re-flatten and device re-sync (rebuild_seconds).
  UpdateStats update_batch(std::span<const queries::UpdateOp> ops);

 private:
  void sync_device();

  gpusim::Device& device_;
  btree::BTree tree_;
  HBTreeDeviceImage image_;
};

}  // namespace harmonia::hbtree
