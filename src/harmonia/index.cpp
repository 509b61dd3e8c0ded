#include "harmonia/index.hpp"

#include <algorithm>
#include <ranges>

#include "common/expect.hpp"
#include "common/timer.hpp"
#include "harmonia/ntg.hpp"
#include "harmonia/range.hpp"

namespace harmonia {

namespace {

/// A range walk of `base` with the `n` key-sorted overlay patches `at(i)`
/// merged over it: shared by the host mirror and the committed device
/// overlay.
template <typename At>
std::vector<btree::Entry> merged_range(const TreeView& base, std::size_t n, const At& at,
                                       Key lo, Key hi, std::size_t limit) {
  if (n == 0) return base.range(lo, hi, limit);
  // Tombstones can only remove n entries, so a base scan of limit + n is
  // always enough to fill `limit` merged results.
  const std::vector<btree::Entry> base_entries =
      base.range(lo, hi, limit == 0 ? 0 : limit + n);

  std::vector<btree::Entry> merged;
  std::size_t o = *std::ranges::partition_point(
      std::views::iota(std::size_t{0}, n), [&](std::size_t i) { return at(i).key < lo; });
  const auto full = [&] { return limit != 0 && merged.size() >= limit; };
  for (const btree::Entry& e : base_entries) {
    for (; o < n && at(o).key < e.key && !full(); ++o) {
      if (!at(o).tombstone) merged.push_back({at(o).key, at(o).value});
    }
    if (full()) return merged;
    if (o < n && at(o).key == e.key) {
      if (!at(o).tombstone) merged.push_back({e.key, at(o).value});
      ++o;  // tombstone: the base entry is hidden
    } else {
      merged.push_back(e);
    }
    if (full()) return merged;
  }
  for (; o < n && at(o).key <= hi && !full(); ++o) {
    if (!at(o).tombstone) merged.push_back({at(o).key, at(o).value});
  }
  return merged;
}

std::optional<Value> first_value(const std::vector<btree::Entry>& entries) {
  if (entries.empty()) return std::nullopt;
  return entries.front().value;
}

}  // namespace

HarmoniaIndex::HarmoniaIndex(gpusim::Device& device, HarmoniaTree tree,
                             const Options& options)
    : device_(device),
      options_(options),
      updater_(std::make_unique<BatchUpdater>(std::move(tree), options.fill_factor)),
      image_(HarmoniaDeviceImage::upload(device, updater_->tree(),
                                         options.const_budget_bytes)) {}

HarmoniaIndex HarmoniaIndex::build(gpusim::Device& device,
                                   std::span<const btree::Entry> entries,
                                   const Options& options) {
  return HarmoniaIndex(device, HarmoniaTree::build(entries, options.fanout, options.fill_factor),
                       options);
}

HarmoniaIndex::QueryResult HarmoniaIndex::search(std::span<const Key> batch,
                                                 const QueryOptions& qopts) {
  HARMONIA_CHECK(!batch.empty());
  QueryResult result;

  // PSA: decide issue order and the simulated sort cost (§4.1).
  PsaPlan plan = psa_prepare(batch, image_.num_keys, device_.spec(), qopts.psa,
                             qopts.psa_override_bits);
  result.sorted_bits = plan.sorted_bits;
  result.sort_cycles = plan.sort_cycles;
  result.sort_seconds = plan.sort_seconds(device_.spec());

  // NTG: group size from the static-profiling model (§4.2).
  SearchConfig config{.group_size = qopts.group_size, .early_exit = qopts.early_exit};
  if (qopts.group_size == kNtgModel) {
    const std::size_t sample =
        std::min<std::size_t>(kNtgProfileSample, plan.queries.size());
    config.group_size =
        choose_group_size(tree(), std::span<const Key>(plan.queries.data(), sample),
                          device_.spec())
            .group_size;
  }
  result.group_size_used =
      resolve_group_size(device_.spec(), tree().fanout(), config.group_size);

  // Upload the batch, run the kernel, fetch results.
  auto& mem = device_.memory();
  auto d_queries = mem.malloc<Key>(plan.queries.size());
  mem.copy_to_device(d_queries, std::span<const Key>(plan.queries));
  auto d_out = mem.malloc<Value>(plan.queries.size());

  result.search = search_batch(device_, image_, d_queries, plan.queries.size(), d_out,
                               config);
  result.kernel_seconds = result.search.metrics.elapsed_seconds(device_.spec());

  result.values.resize(batch.size());
  psa_restore(plan, mem.view(d_out, plan.queries.size()), result.values);
  return result;
}

HarmoniaIndex::RecommendedKnobs HarmoniaIndex::recommend_query_knobs() const {
  RecommendedKnobs rec;
  // Deterministic strided sample of the live key region (pad slots are
  // the bulk-load gaps — skip them; they are not real keys).
  const std::span<const Key> keys = tree().key_region();
  std::vector<Key> sample;
  sample.reserve(kNtgProfileSample);
  const std::size_t stride = std::max<std::size_t>(1, keys.size() / kNtgProfileSample);
  for (std::size_t i = 0; i < keys.size() && sample.size() < kNtgProfileSample;
       i += stride) {
    if (keys[i] != kPadKey) sample.push_back(keys[i]);
  }
  if (sample.empty()) return rec;
  rec.group_size =
      choose_group_size(tree(), std::span<const Key>(sample), device_.spec())
          .group_size;
  rec.sort_bits = psa_equation2_bits(tree().num_keys(), device_.spec());
  return rec;
}

HarmoniaIndex::RangeResult HarmoniaIndex::range_device(std::span<const Key> los,
                                                       std::span<const Key> his,
                                                       unsigned max_results) {
  HARMONIA_CHECK(!los.empty());
  HARMONIA_CHECK(los.size() == his.size());
  auto& mem = device_.memory();
  auto d_lo = mem.malloc<Key>(los.size());
  auto d_hi = mem.malloc<Key>(his.size());
  mem.copy_to_device(d_lo, los);
  mem.copy_to_device(d_hi, his);
  auto d_vals = mem.malloc<Value>(los.size() * max_results);
  auto d_counts = mem.malloc<std::uint32_t>(los.size());

  RangeConfig config;
  config.max_results = max_results;
  const auto stats =
      range_batch(device_, image_, d_lo, d_hi, los.size(), d_vals, d_counts, config);

  RangeResult result;
  result.metrics = stats.metrics;
  result.kernel_seconds = stats.metrics.elapsed_seconds(device_.spec());
  result.total_results = stats.results;

  std::vector<std::uint32_t> counts(los.size());
  mem.copy_to_host(std::span<std::uint32_t>(counts), d_counts);
  std::vector<Value> flat(los.size() * max_results);
  mem.copy_to_host(std::span<Value>(flat), d_vals);
  result.values.resize(los.size());
  for (std::size_t q = 0; q < los.size(); ++q) {
    result.values[q].assign(flat.begin() + static_cast<std::ptrdiff_t>(q * max_results),
                            flat.begin() + static_cast<std::ptrdiff_t>(q * max_results +
                                                                       counts[q]));
  }
  return result;
}

HarmoniaIndex::RangeResult HarmoniaIndex::scan_device(
    std::span<const Key> los, std::span<const std::uint32_t> ns) {
  HARMONIA_CHECK(!los.empty());
  HARMONIA_CHECK(los.size() == ns.size());
  unsigned maxn = 1;
  for (std::uint32_t n : ns) maxn = std::max(maxn, n);
  const std::vector<Key> his(los.size(), kPadKey);
  RangeResult result = range_device(los, his, maxn);
  // The kernel ran with the batch-max cap; each query keeps only its own
  // n and total_results is recomputed so the transfer model charges for
  // the values actually downloaded.
  result.total_results = 0;
  for (std::size_t q = 0; q < ns.size(); ++q) {
    std::vector<Value>& vals = result.values[q];
    if (vals.size() > ns[q]) vals.resize(ns[q]);
    result.total_results += vals.size();
  }
  return result;
}

UpdateStats HarmoniaIndex::update_batch(std::span<const queries::UpdateOp> ops,
                                        unsigned threads) {
  // Fold the overlay into the batch ahead of the caller's ops: the full
  // rebuild + resync subsumes every patch, so the overlay empties.
  std::vector<queries::UpdateOp> fold = overlay_as_ops();
  fold.insert(fold.end(), ops.begin(), ops.end());
  const UpdateStats stats = stage_update(fold, threads).stats;
  commit_staged({});
  return stats;
}

HarmoniaIndex::StagedUpdate HarmoniaIndex::stage_update(
    std::span<const queries::UpdateOp> ops, unsigned threads) {
  StagedUpdate staged;
  staged.stats = updater_->apply(ops, threads);
  // The tree now subsumes the overlay (the contract); the device overlay
  // keeps serving until the commit re-uploads the emptied mirror.
  overlay_.clear();
  return staged;
}

HarmoniaIndex::PatchResult HarmoniaIndex::patch_update(
    std::span<const queries::UpdateOp> ops) {
  using queries::OpKind;
  PatchResult result;
  HarmoniaTree& t = updater_->tree_for_patch();

  for (const queries::UpdateOp& op : ops) {
    const auto it = overlay_find(op.key);
    const bool shadowed = it != overlay_.end() && it->key == op.key;

    switch (op.kind) {
      case OpKind::kUpdate: {
        ++result.stats.updates;
        if (shadowed) {
          if (it->tombstone) {
            ++result.stats.failed;  // key is deleted
          } else {
            it->value = op.value;
            overlay_dirty_ = true;
          }
        } else {
          const std::uint32_t leaf = t.find_leaf(op.key);
          if (t.leaf_update_inplace(leaf, op.key, op.value)) {
            dirty_value_leaves_.insert(leaf);
          } else {
            ++result.stats.failed;
          }
        }
        break;
      }

      case OpKind::kInsert: {
        if (shadowed) {
          // Upsert of a patched key, or an un-delete flipping a tombstone
          // back to a live entry (the stale base slot stays shadowed).
          it->value = op.value;
          it->tombstone = false;
          overlay_dirty_ = true;
          ++result.stats.inserts;
        } else {
          const std::uint32_t leaf = t.find_leaf(op.key);
          if (t.leaf_insert_inplace(leaf, op.key, op.value)) {
            dirty_key_leaves_.insert(leaf);
            ++result.stats.inserts;
          } else if (overlay_.size() < overlay_capacity_) {
            // Leaf gaps exhausted: absorb into the overlay.
            overlay_.insert(it, OverlayEntry{op.key, op.value, false});
            overlay_dirty_ = true;
            ++result.stats.inserts;
          } else {
            result.exhausted = true;  // needs a compaction epoch
          }
        }
        break;
      }

      case OpKind::kDelete: {
        if (shadowed) {
          ++result.stats.deletes;
          if (it->tombstone) {
            ++result.stats.failed;  // already deleted
          } else if (t.search(op.key).has_value()) {
            // The key also sits (stale) in the base — e.g. after an
            // un-delete. Removing the entry would resurrect it, so
            // re-tombstone instead.
            it->value = Value{0};
            it->tombstone = true;
            overlay_dirty_ = true;
          } else {
            overlay_.erase(it);
            overlay_dirty_ = true;
          }
        } else {
          const std::uint32_t leaf = t.find_leaf(op.key);
          if (!t.search(op.key).has_value()) {
            ++result.stats.deletes;
            ++result.stats.failed;
          } else if (t.node_key_count(leaf) > 1) {
            t.leaf_erase_inplace(leaf, op.key);
            dirty_key_leaves_.insert(leaf);
            ++result.stats.deletes;
          } else if (overlay_.size() < overlay_capacity_) {
            // Erasing would empty the leaf (a merge): tombstone the key
            // instead — it stays in the base region but traversal hides it.
            overlay_.insert(it, OverlayEntry{op.key, Value{0}, true});
            overlay_dirty_ = true;
            ++result.stats.deletes;
          } else {
            result.exhausted = true;
          }
        }
        break;
      }
    }

    if (result.exhausted) break;
    ++result.absorbed;
  }

  result.patch_bytes = pending_patch_bytes();
  return result;
}

void HarmoniaIndex::commit_patch() {
  const HarmoniaTree& t = tree();
  const unsigned kpn = t.keys_per_node();
  auto& mem = device_.memory();

  for (const std::uint32_t leaf : dirty_key_leaves_) {
    const std::uint64_t key_base = static_cast<std::uint64_t>(leaf) * kpn;
    mem.write_bytes(image_.node_key_addr(leaf, 0),
                    t.key_region().data() + key_base, kpn * sizeof(Key));
    mem.write_bytes(image_.value_addr(leaf, 0),
                    t.value_region().data() + t.value_slot(leaf, 0),
                    kpn * sizeof(Value));
  }
  for (const std::uint32_t leaf : dirty_value_leaves_) {
    if (dirty_key_leaves_.count(leaf) != 0) continue;
    mem.write_bytes(image_.value_addr(leaf, 0),
                    t.value_region().data() + t.value_slot(leaf, 0),
                    kpn * sizeof(Value));
  }
  if (overlay_dirty_) {
    HARMONIA_CHECK_MSG(!image_.overlay.keys.is_null(),
                       "overlay patches queued without a device overlay "
                       "allocation (set_overlay_capacity was never called)");
    for (std::size_t i = 0; i < overlay_.size(); ++i) {
      mem.write<Key>(image_.overlay.key_addr(static_cast<std::uint32_t>(i)),
                     overlay_[i].key);
      mem.write<Value>(image_.overlay.value_addr(static_cast<std::uint32_t>(i)),
                       overlay_[i].value);
      mem.write<std::uint8_t>(
          image_.overlay.tombstone_addr(static_cast<std::uint32_t>(i)),
          overlay_[i].tombstone ? std::uint8_t{1} : std::uint8_t{0});
    }
    image_.overlay.count = static_cast<std::uint32_t>(overlay_.size());
  }
  image_.num_keys = t.num_keys();
  // The patched regions bypass the simulated caches' coherence.
  if (patch_pending()) device_.flush_caches();
  dirty_key_leaves_.clear();
  dirty_value_leaves_.clear();
  overlay_dirty_ = false;
}

void HarmoniaIndex::discard_patch() {
  dirty_key_leaves_.clear();
  dirty_value_leaves_.clear();
  overlay_dirty_ = false;
}

std::vector<queries::UpdateOp> HarmoniaIndex::overlay_as_ops() const {
  std::vector<queries::UpdateOp> ops;
  ops.reserve(overlay_.size());
  for (const OverlayEntry& e : overlay_) {
    ops.push_back(e.tombstone
                      ? queries::UpdateOp{queries::OpKind::kDelete, e.key, Value{0}}
                      : queries::UpdateOp{queries::OpKind::kInsert, e.key, e.value});
  }
  return ops;
}

TreeSnapshotExtras HarmoniaIndex::snapshot_extras() const {
  TreeSnapshotExtras ex;
  ex.fill_factor = options_.fill_factor;
  ex.overlay.reserve(overlay_.size());
  for (const OverlayEntry& e : overlay_) {
    ex.overlay.push_back({e.key, e.value, static_cast<std::uint8_t>(e.tombstone ? 1 : 0)});
  }
  return ex;
}

std::size_t HarmoniaIndex::overlay_live_count() const {
  std::size_t live = 0;
  for (const OverlayEntry& e : overlay_) live += e.tombstone ? 0 : 1;
  return live;
}

void HarmoniaIndex::set_overlay_capacity(std::size_t capacity) {
  HARMONIA_CHECK_MSG(capacity >= overlay_.size(),
                     "overlay capacity " << capacity << " below current size "
                                         << overlay_.size());
  overlay_capacity_ = capacity;
  upload_overlay();
}

auto HarmoniaIndex::committed_overlay() const {
  const gpusim::Memory& mem = device_.memory();
  const DeltaOverlayImage& ov = image_.overlay;
  return [keys = mem.view(ov.keys, ov.count), values = mem.view(ov.values, ov.count),
          tombstones = mem.view(ov.tombstones, ov.count)](std::size_t i) {
    return OverlayEntry{keys[i], values[i], tombstones[i] != 0};
  };
}

std::optional<Value> HarmoniaIndex::search_host(Key key) const {
  return first_value(range_host(key, key, 1));
}

std::vector<btree::Entry> HarmoniaIndex::range_host(Key lo, Key hi,
                                                    std::size_t limit) const {
  return merged_range(tree().view(), overlay_.size(),
                      [this](std::size_t i) -> const OverlayEntry& { return overlay_[i]; },
                      lo, hi, limit);
}

std::optional<Value> HarmoniaIndex::search_committed(Key key) const {
  return first_value(range_committed(key, key, 1));
}

std::vector<btree::Entry> HarmoniaIndex::range_committed(Key lo, Key hi,
                                                         std::size_t limit) const {
  return merged_range(committed(), image_.overlay.count, committed_overlay(), lo, hi,
                      limit);
}

void HarmoniaIndex::resync_device() {
  WallTimer timer;
  device_.memory().free_all();
  device_.flush_caches();
  image_ = HarmoniaDeviceImage::upload(device_, updater_->tree(), options_.const_budget_bytes);
  // A full re-upload subsumes any queued patch writes, and the overlay
  // mirror (kept by fault-repair resyncs, emptied by commits) re-uploads
  // so patched keys survive the rebuild.
  discard_patch();
  upload_overlay();
  last_sync_seconds_ = timer.elapsed_seconds();
}

void HarmoniaIndex::upload_overlay() {
  if (overlay_capacity_ == 0) {
    image_.overlay = DeltaOverlayImage{};
    return;
  }
  auto& mem = device_.memory();
  DeltaOverlayImage ov;
  ov.capacity = static_cast<std::uint32_t>(overlay_capacity_);
  ov.keys = mem.malloc<Key>(ov.capacity);
  ov.values = mem.malloc<Value>(ov.capacity);
  ov.tombstones = mem.malloc<std::uint8_t>(ov.capacity);
  if (!overlay_.empty()) {
    std::vector<Key> keys(overlay_.size());
    std::vector<Value> values(overlay_.size());
    std::vector<std::uint8_t> tombs(overlay_.size());
    for (std::size_t i = 0; i < overlay_.size(); ++i) {
      keys[i] = overlay_[i].key;
      values[i] = overlay_[i].value;
      tombs[i] = overlay_[i].tombstone ? 1 : 0;
    }
    mem.copy_to_device(ov.keys, std::span<const Key>(keys));
    mem.copy_to_device(ov.values, std::span<const Value>(values));
    mem.copy_to_device(ov.tombstones, std::span<const std::uint8_t>(tombs));
  }
  ov.count = static_cast<std::uint32_t>(overlay_.size());
  image_.overlay = ov;
  overlay_dirty_ = false;
}

std::vector<HarmoniaIndex::OverlayEntry>::iterator HarmoniaIndex::overlay_find(
    Key key) {
  return std::lower_bound(overlay_.begin(), overlay_.end(), key,
                          [](const OverlayEntry& e, Key k) { return e.key < k; });
}

std::uint64_t HarmoniaIndex::pending_patch_bytes() const {
  const unsigned kpn = tree().keys_per_node();
  std::uint64_t value_only = 0;
  for (const std::uint32_t leaf : dirty_value_leaves_) {
    value_only += dirty_key_leaves_.count(leaf) == 0 ? 1u : 0u;
  }
  std::uint64_t bytes =
      static_cast<std::uint64_t>(dirty_key_leaves_.size()) * kpn *
          (sizeof(Key) + sizeof(Value)) +
      value_only * kpn * sizeof(Value);
  if (overlay_dirty_) {
    bytes += overlay_.size() * (sizeof(Key) + sizeof(Value) + 1) +
             sizeof(std::uint32_t);
  }
  return bytes;
}

}  // namespace harmonia
