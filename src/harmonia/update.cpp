#include "harmonia/update.hpp"

#include <algorithm>
#include <barrier>
#include <thread>

#include "common/expect.hpp"
#include "common/timer.hpp"

namespace harmonia {

using queries::OpKind;
using queries::UpdateOp;

BatchUpdater::BatchUpdater(HarmoniaTree tree, double rebuild_fill)
    : tree_(std::move(tree)), rebuild_fill_(rebuild_fill) {
  HARMONIA_CHECK_MSG(rebuild_fill > 0.0 && rebuild_fill <= 1.0,
                     "rebuild fill factor must be in (0, 1]");
  aux_.resize(tree_.num_leaves());
  fine_ = std::make_unique<std::mutex[]>(tree_.num_leaves());
}

void BatchUpdater::fine_enter() {
  // Algorithm 1, lines 3-5: the global counter is protected by the
  // coarse lock.
  std::lock_guard<std::mutex> lk(coarse_);
  ++global_count_;
}

void BatchUpdater::fine_exit() {
  // Algorithm 1, lines 11-13.
  std::lock_guard<std::mutex> lk(coarse_);
  HARMONIA_DCHECK(global_count_ > 0);
  --global_count_;
}

template <typename Fn>
void BatchUpdater::coarse_section(UpdateStats& local, Fn&& fn) {
  // Algorithm 1, lines 16-24: hold the coarse lock only while no
  // fine-grained op is in flight; otherwise release and retry.
  for (;;) {
    coarse_.lock();
    if (global_count_ == 0) {
      fn();
      coarse_.unlock();
      return;
    }
    coarse_.unlock();
    ++local.coarse_retries;
    std::this_thread::yield();
  }
}

namespace {

/// Sorted-vector helpers for auxiliary nodes.
bool aux_upsert(std::vector<btree::Entry>& entries, Key key, Value value) {
  const auto it = std::lower_bound(entries.begin(), entries.end(), key,
                                   [](const btree::Entry& e, Key k) { return e.key < k; });
  if (it != entries.end() && it->key == key) {
    it->value = value;
    return false;  // existed
  }
  entries.insert(it, {key, value});
  return true;  // new key
}

bool aux_update(std::vector<btree::Entry>& entries, Key key, Value value) {
  const auto it = std::lower_bound(entries.begin(), entries.end(), key,
                                   [](const btree::Entry& e, Key k) { return e.key < k; });
  if (it == entries.end() || it->key != key) return false;
  it->value = value;
  return true;
}

bool aux_erase(std::vector<btree::Entry>& entries, Key key) {
  const auto it = std::lower_bound(entries.begin(), entries.end(), key,
                                   [](const btree::Entry& e, Key k) { return e.key < k; });
  if (it == entries.end() || it->key != key) return false;
  entries.erase(it);
  return true;
}

}  // namespace

void BatchUpdater::apply_one(const UpdateOp& op, std::uint32_t leaf,
                             UpdateStats& local) {
  const std::uint32_t li = leaf - tree_.first_leaf_index();

  auto bump = [](std::uint64_t& counter) { ++counter; };

  switch (op.kind) {
    case OpKind::kUpdate: {
      fine_enter();
      bool ok;
      {
        std::lock_guard<std::mutex> lk(fine_[li]);
        ok = aux_[li] ? aux_update(aux_[li]->entries, op.key, op.value)
                      : tree_.leaf_update_inplace(leaf, op.key, op.value);
      }
      fine_exit();
      bump(local.updates);
      bump(local.fine_path_ops);
      if (!ok) bump(local.failed);
      return;
    }

    case OpKind::kInsert: {
      // Optimistically try the fine path: an in-place insert succeeds
      // whenever the leaf still has a free slot and is not split-marked.
      bool need_split = false;
      fine_enter();
      {
        std::lock_guard<std::mutex> lk(fine_[li]);
        if (aux_[li]) {
          need_split = true;  // leaf status is "split": use the aux node
        } else {
          need_split = !tree_.leaf_insert_inplace(leaf, op.key, op.value);
        }
      }
      fine_exit();
      if (!need_split) {
        bump(local.inserts);
        bump(local.fine_path_ops);
        return;
      }
      coarse_section(local, [&] {
        // Re-check under exclusivity: another coarse op may have already
        // split this leaf into an aux node.
        if (!aux_[li]) {
          aux_[li] = std::make_unique<AuxNode>();
          aux_[li]->entries = tree_.leaf_entries(leaf);
        }
        aux_upsert(aux_[li]->entries, op.key, op.value);
        rebuild_needed_ = true;
      });
      bump(local.inserts);
      bump(local.coarse_path_ops);
      return;
    }

    case OpKind::kDelete: {
      // Fine path while the leaf keeps at least one key; emptying a leaf
      // is a merge and takes the coarse path.
      bool done = false;
      bool ok = false;
      fine_enter();
      {
        std::lock_guard<std::mutex> lk(fine_[li]);
        if (aux_[li]) {
          if (aux_[li]->entries.size() > 1) {
            ok = aux_erase(aux_[li]->entries, op.key);
            done = true;
          }
        } else if (tree_.node_key_count(leaf) > 1) {
          ok = tree_.leaf_erase_inplace(leaf, op.key);
          done = true;
        }
      }
      fine_exit();
      if (!done) {
        coarse_section(local, [&] {
          if (!aux_[li]) {
            aux_[li] = std::make_unique<AuxNode>();
            aux_[li]->entries = tree_.leaf_entries(leaf);
          }
          ok = aux_erase(aux_[li]->entries, op.key);
          rebuild_needed_ = true;
        });
        bump(local.coarse_path_ops);
      } else {
        bump(local.fine_path_ops);
      }
      bump(local.deletes);
      if (!ok) bump(local.failed);
      return;
    }
  }
}

UpdateStats BatchUpdater::apply(std::span<const UpdateOp> ops, unsigned threads) {
  HARMONIA_CHECK(threads >= 1);
  UpdateStats stats;
  WallTimer timer;

  if (threads == 1) {
    for (const auto& op : ops) apply_one(op, tree_.find_leaf(op.key), stats);
  } else {
    // Ops are dealt to workers by target leaf. Routing reads only internal
    // levels, which a batch never mutates, so the workers first route
    // their stripes, then each applies the ops of its leaves in arrival
    // order. Every key's ops (and every leaf's) keep their order, so the
    // outcome matches the one-thread apply: stats (coarse_retries aside),
    // contents and rebuilt structure alike.
    std::vector<std::uint32_t> leaf(ops.size());
    std::barrier routed(static_cast<std::ptrdiff_t>(threads));
    std::vector<UpdateStats> locals(threads);
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([this, &ops, &leaf, &routed, &locals, t, threads] {
        for (std::size_t i = t; i < ops.size(); i += threads)
          leaf[i] = tree_.find_leaf(ops[i].key);
        routed.arrive_and_wait();
        for (std::size_t i = 0; i < ops.size(); ++i) {
          if (leaf[i] % threads == t) apply_one(ops[i], leaf[i], locals[t]);
        }
      });
    }
    for (auto& w : workers) w.join();
    for (const auto& local : locals) {
      stats.updates += local.updates;
      stats.inserts += local.inserts;
      stats.deletes += local.deletes;
      stats.failed += local.failed;
      stats.fine_path_ops += local.fine_path_ops;
      stats.coarse_path_ops += local.coarse_path_ops;
      stats.coarse_retries += local.coarse_retries;
    }
  }
  stats.apply_seconds = timer.elapsed_seconds();

  timer.reset();
  if (rebuild_needed_) rebuild(stats);
  stats.rebuild_seconds = timer.elapsed_seconds();
  return stats;
}

void BatchUpdater::rebuild(UpdateStats& stats) {
  const unsigned kpn = tree_.keys_per_node();

  // The new leaf level, flat: surviving leaves as they are, auxiliary
  // nodes cut by the bulk-load leaf rule (a split yields two or more
  // leaves; a merged-away leaf yields none).
  std::vector<btree::Entry> entries;
  entries.reserve(tree_.num_keys());
  std::vector<std::uint32_t> leaf_sizes;
  leaf_sizes.reserve(tree_.num_leaves());
  std::uint32_t first_changed = tree_.num_leaves();
  for (std::uint32_t li = 0; li < tree_.num_leaves(); ++li) {
    if (aux_[li]) {
      first_changed = std::min(first_changed, li);
      ++stats.aux_nodes;
      const auto& aux = aux_[li]->entries;
      entries.insert(entries.end(), aux.begin(), aux.end());
      const auto sizes = btree::plan_leaves(aux.size(), tree_.fanout(), rebuild_fill_);
      leaf_sizes.insert(leaf_sizes.end(), sizes.begin(), sizes.end());
    } else {
      const auto leaf = tree_.leaf_entries(tree_.first_leaf_index() + li);
      entries.insert(entries.end(), leaf.begin(), leaf.end());
      leaf_sizes.push_back(static_cast<std::uint32_t>(leaf.size()));
    }
  }
  HARMONIA_CHECK_MSG(!entries.empty(), "batch removed every key from the tree");

  HarmoniaTree rebuilt = HarmoniaTree::build(entries, tree_.fanout(), rebuild_fill_, leaf_sizes);

  // Deferred-movement accounting: everything from the first structurally
  // changed leaf onward moves, plus all internal nodes (their prefix-sum
  // entries and separators are regenerated).
  const std::uint64_t slots = std::uint64_t{rebuilt.num_nodes()} * kpn;
  stats.moved_slots += slots - std::min<std::uint64_t>(std::uint64_t{first_changed} * kpn, slots);
  stats.rebuilt = true;

  tree_ = std::move(rebuilt);
  aux_.clear();
  aux_.resize(tree_.num_leaves());
  fine_ = std::make_unique<std::mutex[]>(tree_.num_leaves());
  rebuild_needed_ = false;
}

}  // namespace harmonia
