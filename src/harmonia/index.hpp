// HarmoniaIndex — the library's public facade.
//
// Owns the host-side HarmoniaTree, its device image on a simulated GPU,
// and the batch-update machinery; wires together PSA, NTG selection, and
// the search kernel into the paper's phase-based usage model:
//
//   query phase  : index.search(batch)        — GPU-accelerated lookups
//   update phase : index.update_batch(ops)    — CPU, Algorithm 1 locking
//                  (the device image re-syncs automatically afterwards)
//
// One rule: the host tree is the *next* epoch and the committed device
// image the *served* one. Every update path edits the host tree in place
// and the image catches up at commit_patch / commit_staged; host code
// that answers for served state reads the image (committed(), *_committed).
//
// The index assumes it owns its Device's memory: a commit frees and
// re-uploads the whole image. Use one Device per index.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "gpusim/device.hpp"
#include "harmonia/device_image.hpp"
#include "harmonia/psa.hpp"
#include "harmonia/search.hpp"
#include "harmonia/tree.hpp"
#include "harmonia/update.hpp"
#include "queries/batch.hpp"

namespace harmonia {

struct IndexOptions {
  unsigned fanout = 64;
  /// Bulk-load AND compaction-rebuild fill target: every leaf keeps
  /// (1 - fill_factor) of its slots as gaps for the incremental patch
  /// path to absorb later in-place inserts.
  double fill_factor = 0.69;
  /// Cap on constant-memory use for the prefix-sum top levels.
  std::uint64_t const_budget_bytes = 60 << 10;
};

/// Queries in NTG's static profile (§4.2: "for example, 1000"): the
/// head of each batch, or a strided sample of the tree's keys.
inline constexpr unsigned kNtgProfileSample = 1000;

/// QueryOptions::group_size that picks the group with the NTG model
/// (§4.2, Equation 4) over the sorted batch's head.
inline constexpr unsigned kNtgModel = ~0u;

struct QueryOptions {
  /// kPartial sorts psa_override_bits top bits (0 = Equation 2; 64 is the
  /// complete sort of §4.1.1); kNone keeps arrival order.
  PsaMode psa = PsaMode::kPartial;
  /// Lanes per query: kNtgModel, 0 for the fanout-based group, or a
  /// power of two <= warp.
  unsigned group_size = kNtgModel;
  bool early_exit = true;
  unsigned psa_override_bits = 0;
};

class HarmoniaIndex {
 public:
  using Options = IndexOptions;

  struct QueryResult {
    /// Values in arrival order; kNotFound for absent keys.
    std::vector<Value> values;
    SearchStats search;
    unsigned group_size_used = 0;
    unsigned sorted_bits = 0;
    double sort_cycles = 0.0;

    double kernel_seconds = 0.0;
    double sort_seconds = 0.0;
    double total_seconds() const { return kernel_seconds + sort_seconds; }
    double throughput() const {
      return total_seconds() > 0.0
                 ? static_cast<double>(values.size()) / total_seconds()
                 : 0.0;
    }
  };

  /// Builds from sorted, distinct entries (bulk load).
  static HarmoniaIndex build(gpusim::Device& device, std::span<const btree::Entry> entries,
                             const Options& options = Options{});

  /// Wraps an existing host tree.
  HarmoniaIndex(gpusim::Device& device, HarmoniaTree tree, const Options& options = Options{});

  /// The host tree: the next epoch (it leads the image while an update
  /// is staged or a patch is pending).
  const HarmoniaTree& tree() const { return updater_->tree(); }
  const HarmoniaDeviceImage& image() const { return image_; }
  /// The committed image's base regions, read in place: the served state.
  TreeView committed() const { return image_.view(device_.memory()); }
  gpusim::Device& device() { return device_; }
  const gpusim::Device& device() const { return device_; }
  const Options& options() const { return options_; }

  /// Query phase: batched point lookups on the (simulated) GPU.
  QueryResult search(std::span<const Key> batch, const QueryOptions& qopts = QueryOptions{});

  /// What a static re-profile of the *current* tree would pick: the NTG
  /// group size (Eq. 4 over a strided sample of kNtgProfileSample keys)
  /// and the Equation-2 PSA sort-bit count. The serving layer re-runs
  /// this at epoch-swap boundaries so an online tuner can re-seed its
  /// image/PSA knobs after the tree shape changes. Deterministic for a
  /// given tree.
  struct RecommendedKnobs {
    unsigned group_size = 0;
    unsigned sort_bits = 0;
  };
  RecommendedKnobs recommend_query_knobs() const;

  /// Host-side point lookup / range scan (used by tests and examples).
  /// Overlay-aware: patched keys and tombstones are merged over the base
  /// tree, mirroring what the device kernels serve after commit_patch.
  std::optional<Value> search_host(Key key) const;
  std::vector<btree::Entry> range_host(Key lo, Key hi, std::size_t limit = 0) const;

  /// The same over the committed image and device overlay, for host
  /// readers that answer for the device (scan routing, degraded serving).
  std::optional<Value> search_committed(Key key) const;
  std::vector<btree::Entry> range_committed(Key lo, Key hi, std::size_t limit = 0) const;

  struct RangeResult {
    /// values[i] holds up to max_results entries for query i, in order.
    std::vector<std::vector<Value>> values;
    gpusim::KernelMetrics metrics;
    double kernel_seconds = 0.0;
    std::uint64_t total_results = 0;
  };

  /// Batched range queries on the device kernel (§3.2.1): one warp per
  /// [los[i], his[i]] interval, up to max_results values each.
  RangeResult range_device(std::span<const Key> los, std::span<const Key> his,
                           unsigned max_results = 64);

  /// Batched online scans ([lo, n) semantics): the first ns[i] values
  /// with key >= los[i], in key order. Runs the range kernel with an
  /// open upper bound and the batch-max n as the uniform result cap,
  /// then truncates each query to its own n (total_results reflects the
  /// truncated counts — only requested values are downloaded).
  RangeResult scan_device(std::span<const Key> los,
                          std::span<const std::uint32_t> ns);

  /// Host-side scan oracle: first `n` entries with key >= lo
  /// (overlay-aware, like range_host).
  std::vector<btree::Entry> scan_host(Key lo, std::size_t n) const {
    return range_host(lo, kPadKey, n);
  }

  /// Update phase: stage_update + commit_staged — applies the batch on
  /// the CPU (Algorithm 1), then re-synchronizes the device image. A
  /// non-empty delta overlay is folded into the batch first (replayed
  /// ahead of `ops`), so the full resync never loses patched keys.
  UpdateStats update_batch(std::span<const queries::UpdateOp> ops, unsigned threads = 1);

  // --- Incremental update path (docs/serving.md#epoch-pipeline):
  // non-structural ops patch the committed image in place through the
  // leaf gaps; structural ops are absorbed by the bounded delta overlay;
  // when neither can absorb, the caller falls back to a compaction epoch
  // via stage_update/commit_staged. ---

  struct PatchResult {
    /// Stats for the absorbed prefix ops[0 .. absorbed) only.
    UpdateStats stats;
    /// Ops absorbed (host tree + overlay mirror patched, device writes
    /// queued for commit_patch). On exhaustion, ops[absorbed ..] remain
    /// unapplied and must go through a compaction batch.
    std::size_t absorbed = 0;
    bool exhausted = false;
    /// Device bytes commit_patch will move for everything queued so far
    /// (dirty leaf records + the overlay arrays when dirty) — what the
    /// serving layer feeds the PCIe transfer model instead of a full
    /// image upload.
    std::uint64_t patch_bytes = 0;
  };

  /// Applies as long a prefix of `ops` as the gaps and overlay can
  /// absorb. The host tree and overlay mirror change immediately; the
  /// device image does NOT — queued leaf/overlay writes land atomically
  /// at commit_patch, so in-flight device queries keep the old epoch's
  /// view until the caller picks the swap instant.
  PatchResult patch_update(std::span<const queries::UpdateOp> ops);

  /// Flushes the queued patch writes into the live device image (dirty
  /// leaf key/value records + the overlay arrays). No image rebuild, no
  /// allocation churn; safe to call with nothing pending.
  void commit_patch();

  /// Drops queued device writes without touching the host tree or the
  /// overlay mirror — the exhaustion path: the absorbed prefix is already
  /// in the host tree, so the compaction staged on top of it carries it,
  /// and commit_staged's full resync supersedes the queued partial writes.
  void discard_patch();

  bool patch_pending() const {
    return !dirty_key_leaves_.empty() || !dirty_value_leaves_.empty() ||
           overlay_dirty_;
  }

  /// The overlay's contents as an op batch (tombstones -> deletes, live
  /// entries -> inserts, key order). A compaction batch prepends these so
  /// the rebuilt image subsumes the overlay; commit_staged then clears it.
  std::vector<queries::UpdateOp> overlay_as_ops() const;

  /// The image persistence sidecar for this index: fill target + current
  /// overlay contents. Paired with tree() it captures everything a cold
  /// start needs to resume serving this exact logical state.
  TreeSnapshotExtras snapshot_extras() const;

  std::size_t overlay_size() const { return overlay_.size(); }
  std::size_t overlay_live_count() const;
  std::size_t overlay_tombstone_count() const { return overlay_.size() - overlay_live_count(); }
  std::size_t overlay_capacity() const { return overlay_capacity_; }
  /// Sets the device-side delta-overlay bound (entries) and (re)allocates
  /// its arrays. Until it is called the bound is 0, no overlay: every
  /// structural op forces a compaction epoch. Shrinking below the current
  /// overlay size is a contract violation.
  void set_overlay_capacity(std::size_t capacity);

  /// The build half of the double-buffered epoch pipeline
  /// (docs/serving.md): the batch applied to the host tree in place, while
  /// the untouched image keeps serving snapshot N until commit_staged.
  struct StagedUpdate {
    UpdateStats stats;
  };

  /// Applies `ops` to the host tree (Algorithm 1) and empties the overlay
  /// mirror: while the overlay is non-empty, `ops` must begin with
  /// overlay_as_ops(). Several stages may precede one commit (recovery).
  StagedUpdate stage_update(std::span<const queries::UpdateOp> ops, unsigned threads = 1);

  /// The swap (the modeled upload was charged while image N served).
  void commit_staged(StagedUpdate&& /*staged*/) { resync_device(); }

  /// Wall seconds spent in the last device re-synchronization.
  double last_sync_seconds() const { return last_sync_seconds_; }

  /// Rebuilds the device image from the host tree (frees device memory,
  /// flushes caches, re-uploads — including the overlay mirror, so a
  /// fault-repair resync never drops patched keys). Commits do this; the
  /// fault layer calls it to repair a corrupted or restored device image.
  /// Queued patch writes are subsumed by the full re-upload and cleared.
  void resync_device();

 private:
  /// One overlay patch in the host mirror (sorted by key). A live entry
  /// shadows the base with `value`; a tombstone hides a key still
  /// physically present in the base key region.
  struct OverlayEntry {
    Key key;
    Value value;
    bool tombstone;
  };

  /// Entry i of the committed device overlay, read in place.
  auto committed_overlay() const;
  /// (Re)allocates the device overlay arrays and uploads the mirror.
  void upload_overlay();
  std::vector<OverlayEntry>::iterator overlay_find(Key key);
  std::uint64_t pending_patch_bytes() const;

  gpusim::Device& device_;
  Options options_;
  /// Behind a unique_ptr: BatchUpdater owns mutexes, so it is neither
  /// movable nor assignable, and the index stays move-constructible.
  std::unique_ptr<BatchUpdater> updater_;
  HarmoniaDeviceImage image_;
  double last_sync_seconds_ = 0.0;

  /// Host mirror of the delta overlay (authoritative; device arrays are
  /// rewritten from it when dirty).
  std::vector<OverlayEntry> overlay_;
  std::size_t overlay_capacity_ = 0;
  /// Deferred device writes queued by patch_update: leaves whose key
  /// region changed (keys + values re-upload) vs value-only updates, plus
  /// whether the overlay arrays need a rewrite. Flushed by commit_patch.
  std::set<std::uint32_t> dirty_key_leaves_;
  std::set<std::uint32_t> dirty_value_leaves_;
  bool overlay_dirty_ = false;
};

}  // namespace harmonia
