// HBTreeIndex — baseline facade: a CPU B+tree (the HB+ host structure)
// plus its node-based device image. Search runs the shared descend
// (harmonia/descend.hpp) on the HB+ layout with fanout-wide groups and no
// early exit: full-node key comparisons (the "useless comparisons" of
// §4.2) and a child-reference load at every level. Batch updates run on
// the CPU tree and re-synchronize the image (§3.2.2 / Figure 14
// comparison).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "btree/btree.hpp"
#include "gpusim/device.hpp"
#include "harmonia/search.hpp"
#include "hbtree/layout.hpp"
#include "queries/batch.hpp"

namespace harmonia::hbtree {

struct HBQueryResult {
  std::vector<Value> values;
  SearchStats search;
  double kernel_seconds = 0.0;
  double throughput() const {
    return kernel_seconds > 0.0 ? static_cast<double>(values.size()) / kernel_seconds : 0.0;
  }
};

struct HBUpdateStats {
  std::uint64_t updates = 0;
  std::uint64_t inserts = 0;
  std::uint64_t deletes = 0;
  std::uint64_t failed = 0;
  double apply_seconds = 0.0;
  double sync_seconds = 0.0;

  std::uint64_t total_ops() const { return updates + inserts + deletes; }
  double ops_per_second() const {
    const double t = apply_seconds + sync_seconds;
    return t > 0.0 ? static_cast<double>(total_ops()) / t : 0.0;
  }
};

class HBTreeIndex {
 public:
  HBTreeIndex(gpusim::Device& device, btree::BTree tree);

  static HBTreeIndex build(gpusim::Device& device, std::span<const btree::Entry> entries,
                           unsigned fanout, double fill_factor = 0.69);

  const btree::BTree& tree() const { return tree_; }
  const HBTreeDeviceImage& image() const { return image_; }

  HBQueryResult search(std::span<const Key> batch);

  /// CPU batch update on the pointer tree, then device re-sync.
  HBUpdateStats update_batch(std::span<const queries::UpdateOp> ops);

 private:
  void sync_device();

  gpusim::Device& device_;
  btree::BTree tree_;
  HBTreeDeviceImage image_;
};

}  // namespace harmonia::hbtree
