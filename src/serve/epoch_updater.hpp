// The per-shard epoch engine: the serving-side wrapper around the paper's
// phase-based usage model (§3.2), on one shard's index, in one of three
// modes. It works on ops, not requests: shard::ShardedServer buffers
// update requests, scatters each epoch's ops across its shards, and
// composes the per-shard charges into one epoch on the virtual clock.
//
// Every mode stages (the host tree becomes epoch N+1 in place) and
// commits (the device catches up); in between, image N serves.
//
// Quiesce (the original path): the backend drains every pending query
// batch and runs a held staged epoch from the barrier: each touched shard
// stages (Algorithm 1) and commits, which re-images the one served image,
// and resync() charges that transfer. The device is held through the CPU
// apply and the PCIe resync, and every shard swaps at the epoch's end.
//
// Overlap (the double-buffered epoch pipeline, docs/serving.md): the
// staged image N+1 uploads in the background while queries keep
// dispatching against committed image N. When the staged image is
// ready, an atomic swap at a batch boundary retires image N; the device
// never stalls for the build or the upload.
//
// Incremental (--epoch-mode delta, docs/serving.md#epoch-pipeline): the
// engine first tries to *patch* the committed image in place — value
// updates and gap-absorbed inserts edit leaf records, structural ops land
// in the bounded device-side delta overlay — so only the dirty leaf
// records and overlay arrays cross PCIe at the swap instant. When gaps or
// the overlay exhaust, the epoch falls back to an overlap-style
// compaction that folds the overlay into a rebuilt image.
//
// In every mode queries observe a whole number of epochs — there are no
// torn states, which is what makes the serving path testable against a
// snapshot oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "fault/injector.hpp"
#include "harmonia/index.hpp"
#include "harmonia/pipeline.hpp"
#include "obs/observer.hpp"
#include "persist/durability.hpp"
#include "queries/batch.hpp"

namespace harmonia::serve {

/// How an epoch trigger treats the device (docs/serving.md#epoch-pipeline).
enum class EpochMode : std::uint8_t {
  /// Drain the scheduler, hold the device through apply + resync.
  kQuiesce,
  /// Stage the epoch in the host tree, upload in the background, swap
  /// atomically at a batch boundary; queries never stop.
  kOverlap,
  /// Incremental ("delta"): non-structural ops patch the committed image
  /// in place through the leaf gaps, structural ops land in the bounded
  /// device-side delta overlay; only the dirty leaf records + overlay
  /// arrays cross PCIe. When gaps or the overlay exhaust, the epoch falls
  /// back to an overlap-style compaction that folds the overlay into a
  /// rebuilt image. Queries never stop in either case.
  kIncremental,
};

struct EpochConfig {
  /// Size trigger: apply an epoch once this many updates are buffered.
  std::size_t max_buffered = 4096;
  /// Deadline trigger on the oldest buffered update; +inf = size-only
  /// (leftovers still apply in the final drain).
  double max_wait = std::numeric_limits<double>::infinity();
  /// Worker threads for the Algorithm-1 batch apply.
  unsigned apply_threads = 1;
  /// Modeled CPU cost per applied op on the virtual clock. Wall-clock
  /// timings would work but would make latency traces nondeterministic;
  /// a per-op charge keeps the whole simulation replayable. The default
  /// is in the range the paper's 28-core Xeon sustains.
  double seconds_per_op = 250e-9;
  /// Modeled CPU cost per op on the incremental patch path: an in-place
  /// leaf edit or a bounded overlay upsert — no Algorithm-1 lock traffic
  /// and no deferred key-region movement, so cheaper than seconds_per_op.
  double seconds_per_patch_op = 50e-9;
  /// Delta-overlay bound (entries) installed on the index when mode is
  /// kIncremental; ignored otherwise.
  std::size_t overlay_capacity = 1024;
  /// kQuiesce preserves the original stall-the-world behaviour exactly.
  EpochMode mode = EpochMode::kQuiesce;
};

class EpochUpdater {
 public:
  EpochUpdater(HarmoniaIndex& index, const TransferModel& link,
               const EpochConfig& config);

  HarmoniaIndex& index() { return index_; }

  /// One shard's host work in an epoch. The build charge comes back both
  /// as charged-op counts and as the matching patch and fold addends, so
  /// the backend fixes the floating-point order of the fleet sum: staged
  /// epochs add each shard's two addends in shard order, quiesce epochs
  /// multiply the summed fold counts once.
  struct Work {
    /// Client ops this shard absorbed (the replica catch-up ledger entry).
    std::uint64_t ops = 0;
    /// Ops charged at seconds_per_patch_op: the in-place patch, or the
    /// absorbed prefix of one that exhausted the gaps/overlay.
    std::uint64_t patch_ops = 0;
    /// Ops charged at seconds_per_op: the Algorithm-1 apply, overlay
    /// replays included.
    std::uint64_t fold_ops = 0;
    double patch_seconds = 0.0;
    double fold_seconds = 0.0;
    /// True when the epoch patched the committed image in place; false
    /// for every full-image epoch (quiesce, overlap, compaction).
    bool patch = false;
    /// Client ops only: overlay replays are real build work but are
    /// backed out here, so updates_applied counts each request once.
    UpdateStats stats;

    double build_seconds() const { return patch_seconds + fold_seconds; }
  };

  /// Appends `ops` to the write-ahead log at `log_at`, then stages the
  /// epoch — an in-place patch when the mode is incremental, `may_patch`
  /// holds and the gaps/overlay absorb every op; otherwise an Algorithm-1
  /// apply to the host tree that folds the committed overlay ahead of the
  /// unabsorbed ops. Requires !inflight().
  Work stage(std::uint64_t epoch, std::span<const queries::UpdateOp> ops,
             double log_at, bool may_patch);
  /// Background upload of the staged epoch starting at `build_done` (the
  /// patch bytes, or the full image) through staged_transfer(); annotates
  /// upload start and staged-ready on the trace. Live migrations upload
  /// their staged images here too.
  double upload(double build_done);
  /// Atomic swap at a batch boundary: flushes the queued leaf/overlay
  /// writes (patch) or re-images the device from the host tree.
  void commit();
  bool inflight() const { return inflight_; }
  /// Quiesce: the PCIe resync of the image commit() just rebuilt, from
  /// `build_done`: slowdown windows live at the transfer's end stretch it,
  /// and an armed corruption hits the fresh image there — the CRC32 audit
  /// catches it and the re-image (also stretched) is charged here.
  double resync(double build_done);

  /// Modeled host CPU time to apply `ops` ops at seconds_per_op — the one
  /// place that prices the Algorithm-1 apply: quiesce and staged builds,
  /// live migrations and replica catch-up all charge through it.
  double apply_seconds(std::uint64_t ops) const {
    return static_cast<double>(ops) * config_.seconds_per_op;
  }

  /// Snapshot point after epoch `epoch` committed at `at`: a delta-mode
  /// compaction forces one (the full image was just rebuilt — the natural
  /// snapshot); otherwise the durability cadence decides. Modeled as an
  /// async background write: no device time is charged.
  void snapshot(std::uint64_t epoch, bool compaction, double at);

  /// Books one committed epoch into this shard's serve_epoch_*{shard}
  /// metrics: op counters and the build/upload/swap-wait/stall
  /// histograms, with build/upload split by patch vs compaction.
  void observe(const Work& w, double upload_seconds, double swap_wait,
               double stall);

  /// Arms the fault path for the epoch image transfers.
  void set_fault_context(fault::FaultInjector* injector, unsigned shard) {
    injector_ = injector;
    shard_ = shard;
  }

  /// Attaches the write-ahead durability sink. Null (the default) = no
  /// logging and no snapshots.
  void set_durability(persist::ShardDurability* durability) { durability_ = durability; }

  /// Attaches metrics + tracing for shard `shard`.
  void set_observer(const obs::Observer& obs, unsigned shard);

 private:
  void charge(Work& w) const;
  /// Fault charge of a staged transfer of `seconds` starting at `start`:
  /// slowdown windows live at its end stretch it, and the pre-swap CRC32
  /// audit turns an armed corruption into one re-upload — never a served
  /// corrupt image.
  double staged_transfer(double seconds, double start);

  HarmoniaIndex& index_;
  TransferModel link_;
  const EpochConfig config_;  // construction-time only, apply_threads included
  /// The staged epoch between stage() and commit(): its ordinal, and
  /// whether it patches in place (the queued writes live inside the index
  /// until commit_patch) or re-images from the host tree.
  bool inflight_ = false;
  bool patch_ = false;
  std::uint64_t epoch_ = 0;
  std::uint64_t patch_bytes_ = 0;
  fault::FaultInjector* injector_ = nullptr;
  unsigned shard_ = 0;
  persist::ShardDurability* durability_ = nullptr;
  obs::Observer obs_;
  obs::Counter* epochs_total_ = nullptr;
  obs::Counter* ops_total_ = nullptr;
  obs::Counter* ops_failed_ = nullptr;
  obs::LatencyHistogram* apply_hist_ = nullptr;
  obs::LatencyHistogram* resync_hist_ = nullptr;
  obs::LatencyHistogram* swap_wait_hist_ = nullptr;
  obs::LatencyHistogram* stall_hist_ = nullptr;
  /// Patch-vs-compaction splits of build/upload (every epoch lands in
  /// exactly one pair; quiesce and overlap epochs book as compaction).
  obs::LatencyHistogram* patch_build_hist_ = nullptr;
  obs::LatencyHistogram* patch_upload_hist_ = nullptr;
  obs::LatencyHistogram* compaction_build_hist_ = nullptr;
  obs::LatencyHistogram* compaction_upload_hist_ = nullptr;
};

}  // namespace harmonia::serve
