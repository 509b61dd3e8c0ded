#include "persist/recovery.hpp"

#include <cinttypes>
#include <cstdio>

#include "common/expect.hpp"

namespace harmonia::persist {

namespace {
/// Modeled CPU cost per key of a full bulk rebuild, the fallback path (a
/// modeled assumption, DESIGN.md §2).
constexpr double kSecondsPerRebuildKey = 250e-9;
}  // namespace

std::string RecoveryReport::csv_header() {
  return "shard,from_snapshot,snapshot_epoch,snapshots_discarded,"
         "overlay_replayed,batches_replayed,ops_replayed,log_torn_tail,rebuilt,"
         "snapshot_bytes,log_bytes,recovered_epoch,modeled_ms";
}

std::string RecoveryReport::csv_row() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%u,%d,%" PRIu64 ",%u,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%d,%d,%" PRIu64
                ",%" PRIu64 ",%" PRIu64 ",%.6f",
                shard, from_snapshot ? 1 : 0, snapshot_epoch, snapshots_discarded,
                overlay_replayed, batches_replayed, ops_replayed, log_torn_tail ? 1 : 0,
                rebuilt ? 1 : 0, snapshot_bytes, log_bytes, recovered_epoch,
                modeled_seconds * 1e3);
  return buf;
}

RecoveryManager::Materials RecoveryManager::load_shard(unsigned shard) const {
  Materials m;
  m.report.shard = shard;
  const std::filesystem::path dir = config_.shard_dir(shard);
  SnapshotStore store(dir);
  m.snapshot = store.load_newest();
  if (m.snapshot.has_value()) {
    m.report.from_snapshot = true;
    m.report.snapshot_epoch = m.snapshot->epoch;
    m.report.snapshots_discarded = m.snapshot->discarded;
    m.report.snapshot_bytes = m.snapshot->bytes;
  } else {
    m.report.rebuilt = true;
    m.report.snapshots_discarded = static_cast<unsigned>(store.list().size());
  }
  m.log = UpdateLog::replay(dir / "update.log");
  m.report.log_torn_tail = m.log.torn_tail;
  // A cold start reads the whole log to find the valid tail.
  m.report.log_bytes = m.log.total_bytes;
  return m;
}

RecoveryReport RecoveryManager::finish(Materials&& materials, HarmoniaIndex& index,
                                       const TransferModel& link,
                                       std::uint64_t rebuild_keys) const {
  RecoveryReport report = std::move(materials.report);
  report.recovered_epoch = report.snapshot_epoch;

  // Step 2: fold the snapshot's overlay sidecar into the base, exactly
  // as a compaction epoch would, so patched keys and tombstones survive
  // the restart.
  if (materials.snapshot.has_value() && !materials.snapshot->extras.overlay.empty()) {
    std::vector<queries::UpdateOp> fold;
    fold.reserve(materials.snapshot->extras.overlay.size());
    for (const auto& rec : materials.snapshot->extras.overlay) {
      fold.push_back(rec.tombstone != 0
                         ? queries::UpdateOp{queries::OpKind::kDelete, rec.key, Value{0}}
                         : queries::UpdateOp{queries::OpKind::kInsert, rec.key, rec.value});
    }
    index.stage_update(fold);
    report.overlay_replayed = fold.size();
  }

  // Step 3: replay every fully-logged batch past the snapshot through
  // the normal stage path, then upload the recovered image once.
  for (const LogBatch& batch : materials.log.batches) {
    if (batch.epoch <= report.snapshot_epoch) continue;
    index.stage_update(batch.ops);
    ++report.batches_replayed;
    report.ops_replayed += batch.ops.size();
    report.recovered_epoch = batch.epoch;
  }
  if (report.overlay_replayed + report.batches_replayed > 0) index.commit_staged({});

  // Modeled cold-start cost (virtual clock — deterministic).
  const RecoveryTiming& t = config_.timing;
  const double disk_bytes =
      static_cast<double>(report.snapshot_bytes) + static_cast<double>(report.log_bytes);
  report.modeled_seconds =
      disk_bytes / (t.disk_gigabytes_per_second * 1e9) +
      static_cast<double>(report.overlay_replayed + report.ops_replayed) * seconds_per_op_ +
      image_resync_seconds(index.tree(), link);
  if (report.rebuilt) {
    report.modeled_seconds +=
        static_cast<double>(rebuild_keys) * kSecondsPerRebuildKey;
  }

  // Step 4: checkpoint the recovered state as a new generation — every
  // image of the crashed generation deleted, a reset log, a fresh
  // epoch-0 image — so the restarted server's epoch numbering (which
  // begins again at 1) can never collide with stale on-disk state.
  const std::filesystem::path dir = config_.shard_dir(report.shard);
  SnapshotStore store(dir);
  std::filesystem::create_directories(dir);
  store.prune(0);
  UpdateLog::truncate(dir / "update.log", 0);
  store.write(0, index.tree(), index.snapshot_extras());
  return report;
}

double RecoveryManager::modeled_rebuild_seconds(std::uint64_t num_keys, const HarmoniaTree& tree,
                                                const TransferModel& link) {
  return static_cast<double>(num_keys) * kSecondsPerRebuildKey +
         image_resync_seconds(tree, link);
}

}  // namespace harmonia::persist
