#include "hbtree/index.hpp"

#include "common/expect.hpp"
#include "common/timer.hpp"
#include "harmonia/descend.hpp"

namespace harmonia::hbtree {

using queries::OpKind;

HBTreeIndex::HBTreeIndex(gpusim::Device& device, btree::BTree tree)
    : device_(device),
      tree_(std::move(tree)),
      image_(HBTreeDeviceImage::upload(device, HarmoniaTree::from_btree(tree_))) {}

HBTreeIndex HBTreeIndex::build(gpusim::Device& device, std::span<const btree::Entry> entries,
                               unsigned fanout, double fill_factor) {
  btree::BTree tree(fanout);
  tree.bulk_load(entries, fill_factor);
  return HBTreeIndex(device, std::move(tree));
}

HarmoniaIndex::QueryResult HBTreeIndex::search(std::span<const Key> batch) {
  HARMONIA_CHECK(!batch.empty());
  auto& mem = device_.memory();
  auto d_queries = mem.malloc<Key>(batch.size());
  mem.copy_to_device(d_queries, batch);
  auto d_out = mem.malloc<Value>(batch.size());

  HarmoniaIndex::QueryResult result;
  result.search = lookup_batch(device_, image_, d_queries, batch.size(), d_out,
                               {.group_size = 0, .early_exit = false});
  result.group_size_used = resolve_group_size(device_.spec(), image_.fanout, 0);
  result.kernel_seconds = result.search.metrics.elapsed_seconds(device_.spec());
  result.values.resize(batch.size());
  mem.copy_to_host(std::span<Value>(result.values), d_out);
  return result;
}

UpdateStats HBTreeIndex::update_batch(std::span<const queries::UpdateOp> ops) {
  UpdateStats stats;
  WallTimer timer;
  for (const auto& op : ops) {
    switch (op.kind) {
      case OpKind::kUpdate:
        ++stats.updates;
        if (!tree_.update(op.key, op.value)) ++stats.failed;
        break;
      case OpKind::kInsert:
        ++stats.inserts;
        tree_.insert(op.key, op.value);
        break;
      case OpKind::kDelete:
        ++stats.deletes;
        if (!tree_.erase(op.key)) ++stats.failed;
        break;
    }
  }
  stats.apply_seconds = timer.elapsed_seconds();

  timer.reset();
  sync_device();
  stats.rebuild_seconds = timer.elapsed_seconds();
  return stats;
}

void HBTreeIndex::sync_device() {
  device_.memory().free_all();
  device_.flush_caches();
  image_ = HBTreeDeviceImage::upload(device_, HarmoniaTree::from_btree(tree_));
}

}  // namespace harmonia::hbtree
