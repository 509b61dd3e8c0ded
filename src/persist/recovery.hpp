// RecoveryManager — cold-start a shard from disk.
//
// Per shard, the recovery flow is:
//
//   1. newest-valid snapshot: walk the `snap-*.img` images in the
//      shard directory newest-first and take the first one whose
//      checksum + structural validate pass.
//   2. overlay fold: the snapshot's delta-overlay sidecar replays as
//      one op batch through the normal stage_update path, so the
//      recovered base subsumes it exactly like a fold-compaction epoch
//      would have.
//   3. log replay: every fully-logged batch with epoch > snapshot epoch
//      stages in order; the torn tail (a crash mid-append) is truncated
//      away. One commit_staged then uploads the recovered image.
//   4. checkpoint: the recovered state is written back as a fresh
//      epoch-0 snapshot, every other image is deleted and the log is
//      reset. The directory then holds exactly `snap-000000000000.img`
//      and an empty `update.log`, so the next generation's epoch
//      numbering (restarting at 1) can never collide with stale images
//      or records.
//
// When no snapshot decodes at all, the caller's bulk-rebuilt tree is
// the base (rebuilt = true) and the full log replays over it.
//
// All recovery cost is *modeled* (RecoveryTiming, the serving apply
// price per replayed op, and the PCIe link), in keeping with the repo's
// virtual-clock discipline: reports carry deterministic modeled
// seconds, never wall-clock. Crashes during recovery itself are not
// modeled.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "harmonia/index.hpp"
#include "harmonia/pipeline.hpp"
#include "persist/durability.hpp"
#include "persist/snapshot_store.hpp"
#include "persist/update_log.hpp"

namespace harmonia::persist {

struct RecoveryReport {
  unsigned shard = 0;
  bool from_snapshot = false;
  /// Epoch of the snapshot the recovery started from (0 when rebuilt).
  std::uint64_t snapshot_epoch = 0;
  /// Newer snapshots discarded because they failed checksum/validate.
  unsigned snapshots_discarded = 0;
  /// Overlay records folded out of the snapshot sidecar.
  std::uint64_t overlay_replayed = 0;
  std::uint64_t batches_replayed = 0;
  std::uint64_t ops_replayed = 0;
  /// The log ended in a torn/corrupt record that was truncated away.
  bool log_torn_tail = false;
  /// No snapshot decoded; the bulk-rebuilt tree was the base.
  bool rebuilt = false;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t log_bytes = 0;
  /// Highest epoch the recovered state reflects (snapshot epoch when
  /// the log held nothing newer).
  std::uint64_t recovered_epoch = 0;
  /// Modeled cold-start cost: disk reads + replay CPU + image upload
  /// (+ the full rebuild cost on the fallback path).
  double modeled_seconds = 0.0;

  static std::string csv_header();
  std::string csv_row() const;
};

class RecoveryManager {
 public:
  /// `seconds_per_op` prices one replayed op (stage_update): the
  /// serving stack's EpochConfig::seconds_per_op.
  RecoveryManager(const DurabilityConfig& config, double seconds_per_op)
      : config_(config), seconds_per_op_(seconds_per_op) {}

  struct Materials {
    std::optional<SnapshotStore::Loaded> snapshot;
    LogReplay log;
    RecoveryReport report;  // snapshot/log fields filled; replay fields pending
  };

  /// Steps 1 + the log read. Cheap on a shard directory that does not
  /// exist (fresh start: empty materials, rebuilt = true).
  Materials load_shard(unsigned shard) const;

  /// Steps 2-4 against `index`, which must already wrap the recovered
  /// base tree (the snapshot tree, or the bulk rebuild when
  /// materials.report.rebuilt). Returns the completed report.
  RecoveryReport finish(Materials&& materials, HarmoniaIndex& index, const TransferModel& link,
                        std::uint64_t rebuild_keys) const;

  /// Modeled cost of the no-durability alternative: bulk rebuild from
  /// source data + full image upload. E15 plots recovery against this.
  static double modeled_rebuild_seconds(std::uint64_t num_keys, const HarmoniaTree& tree,
                                        const TransferModel& link);

 private:
  DurabilityConfig config_;
  double seconds_per_op_;
};

}  // namespace harmonia::persist
