// CPU-side batch updates with the paper's two-grained locking protocol
// (§3.2.2, Algorithm 1) and deferred key-region movement.
//
// During a batch:
//  - updates and non-splitting inserts/deletes run on the *fine* path:
//    bump the global in-flight counter under the coarse lock, then mutate
//    the target leaf in place under that leaf's fine lock;
//  - splitting inserts and merging deletes run on the *coarse* path:
//    spin until the coarse lock is held while the in-flight counter is
//    zero, then move the leaf's contents to an *auxiliary node* (status =
//    split) and apply the operation there. Later ops targeting that leaf
//    consult the auxiliary node.
// Internal levels of the key region are never touched during a batch, so
// leaf routing needs no locks. After the batch, the deferred movement
// rebuilds the key region / prefix-sum array from the surviving leaves and
// the auxiliary nodes in one pass.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "harmonia/tree.hpp"
#include "queries/batch.hpp"

namespace harmonia {

struct UpdateStats {
  std::uint64_t updates = 0;
  std::uint64_t inserts = 0;
  std::uint64_t deletes = 0;
  /// Ops whose key was absent (update/delete of a missing key).
  std::uint64_t failed = 0;
  std::uint64_t fine_path_ops = 0;
  std::uint64_t coarse_path_ops = 0;
  /// Coarse-path retries while fine-path ops were in flight (Algorithm 1's
  /// RETRY loop).
  std::uint64_t coarse_retries = 0;
  std::uint64_t aux_nodes = 0;
  /// Key-region slots rewritten by the deferred movement.
  std::uint64_t moved_slots = 0;
  bool rebuilt = false;
  double apply_seconds = 0.0;
  double rebuild_seconds = 0.0;

  /// Merges another batch's stats (shards applied one after another on
  /// one host CPU): counts and wall times add, `rebuilt` ORs.
  UpdateStats& operator+=(const UpdateStats& o) {
    updates += o.updates;
    inserts += o.inserts;
    deletes += o.deletes;
    failed += o.failed;
    fine_path_ops += o.fine_path_ops;
    coarse_path_ops += o.coarse_path_ops;
    coarse_retries += o.coarse_retries;
    aux_nodes += o.aux_nodes;
    moved_slots += o.moved_slots;
    rebuilt = rebuilt || o.rebuilt;
    apply_seconds += o.apply_seconds;
    rebuild_seconds += o.rebuild_seconds;
    return *this;
  }

  std::uint64_t total_ops() const { return updates + inserts + deletes; }
  double ops_per_second() const {
    const double t = apply_seconds + rebuild_seconds;
    return t > 0.0 ? static_cast<double>(total_ops()) / t : 0.0;
  }
};

class BatchUpdater {
 public:
  /// `rebuild_fill` sets the target fill factor the deferred movement
  /// leaves in rebuilt leaves — i.e. how much gap each leaf keeps for the
  /// incremental patch path to absorb later in-place inserts (the paper's
  /// bulk-load fill, 0.69, by default).
  explicit BatchUpdater(HarmoniaTree tree, double rebuild_fill = 0.69);

  const HarmoniaTree& tree() const { return tree_; }

  /// Mutable tree access for the incremental patch path
  /// (HarmoniaIndex::patch_update): in-place leaf mutations between
  /// batches, under the same no-concurrent-batch contract as apply().
  HarmoniaTree& tree_for_patch() { return tree_; }

  /// Applies one batch with `threads` workers (ops are dealt to workers
  /// by target leaf, so each key's ops keep arrival order and the outcome
  /// matches threads = 1), then performs the deferred movement. Returns
  /// statistics.
  UpdateStats apply(std::span<const queries::UpdateOp> ops, unsigned threads = 1);

 private:
  /// A leaf whose structure changed (split/merge pending); holds the
  /// leaf's full contents, sorted. Empty = every key deleted (merge).
  struct AuxNode {
    std::vector<btree::Entry> entries;
  };

  /// Applies one op to `leaf` (its routed target; routing reads only
  /// internal levels, which a batch never mutates, so it needs no lock),
  /// accumulating into a worker-local stats block (no shared-counter
  /// contention on the hot path).
  void apply_one(const queries::UpdateOp& op, std::uint32_t leaf,
                 UpdateStats& local);
  void fine_enter();
  void fine_exit();
  /// Runs `fn` under Algorithm 1's coarse-path protocol.
  template <typename Fn>
  void coarse_section(UpdateStats& local, Fn&& fn);
  void rebuild(UpdateStats& stats);

  HarmoniaTree tree_;
  double rebuild_fill_ = 0.69;
  std::vector<std::unique_ptr<AuxNode>> aux_;  // indexed by leaf ordinal
  std::unique_ptr<std::mutex[]> fine_;
  std::mutex coarse_;
  std::uint64_t global_count_ = 0;
  bool rebuild_needed_ = false;
};

}  // namespace harmonia
