// ShardDurability / DurabilityDomain — the serving stack's write path
// to disk, with deterministic crash injection built in.
//
// Each shard owns one directory (`<dir>/shard-0000/...`) holding its
// append-only update log and its retained snapshot images; shards never
// share files, so they recover independently.
//
// Crash injection rides the simulation's virtual clock: every durable
// write carries the virtual instant it happens at, and once the armed
// crash time is reached the write is silently dropped — the process is
// dead, nothing after the crash instant reaches disk. apply_crash()
// then models the torn write: it chops the configured number of bytes
// off the victim shard's *last surviving* write (a log record or a
// snapshot image, whichever happened to be in flight), which is
// exactly the mid-log-append / mid-snapshot-write state the recovery
// path must survive. A snapshot image is the last write of its
// instant, so a tear there damages the newest image; at least two
// retained images (retain >= 2) guarantee an intact predecessor.
// Crashes during recovery itself are not modeled: only serving writes
// pass through the crash filter.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "harmonia/index.hpp"
#include "persist/snapshot_store.hpp"
#include "persist/update_log.hpp"
#include "queries/batch.hpp"

namespace harmonia::persist {

/// Disk cost model for the recovery report's modeled seconds (the
/// virtual-clock analogue of the PCIe TransferModel). A bulk rebuild's
/// CPU cost per key is fixed in persist/recovery.cpp.
struct RecoveryTiming {
  /// Sequential read bandwidth for snapshot + log bytes.
  double disk_gigabytes_per_second = 2.0;
};

struct DurabilityConfig {
  /// Root directory for all shards. Empty = persistence disabled.
  std::string dir;
  /// Logged epochs between cadence snapshots; 0 = only forced
  /// (compaction-triggered) snapshots.
  std::uint64_t snapshot_every = 8;
  /// Snapshots retained per shard (the fallback chain's depth). At
  /// least 2: a torn newest image must leave an intact predecessor.
  std::size_t retain = 2;
  /// Cold-start from `dir` (newest-valid snapshot + log replay) instead
  /// of bulk building.
  bool recover = false;
  RecoveryTiming timing;

  bool enabled() const { return !dir.empty(); }
  std::filesystem::path shard_dir(unsigned shard) const;
};

/// Armed crash instant, shared by every shard of a domain.
struct CrashState {
  double at = std::numeric_limits<double>::infinity();
  bool dead(double t) const { return t >= at; }
};

class ShardDurability {
 public:
  ShardDurability(const DurabilityConfig& config, unsigned shard, const CrashState* crash);

  unsigned shard() const { return shard_; }
  const std::filesystem::path& dir() const { return dir_; }

  /// Appends one epoch's update batch to the log (write-ahead: called
  /// before the batch is applied to the in-memory index).
  void log_batch(std::uint64_t epoch, std::span<const queries::UpdateOp> ops, double at);

  /// Snapshot point after epoch `epoch` committed: writes an image when
  /// the cadence is due or `force` is set (delta-mode fold-compactions
  /// force — the freshly rebuilt image is the natural snapshot). Also
  /// prunes beyond the retain bound. Returns true when an image was
  /// written.
  bool maybe_snapshot(std::uint64_t epoch, const HarmoniaIndex& index, bool force, double at);

  std::uint64_t log_batches() const { return log_batches_; }
  std::uint64_t log_ops() const { return log_ops_; }
  std::uint64_t snapshots_written() const { return snapshots_; }

  /// Models the torn write for this shard: chops `torn_bytes` off the
  /// last durable write (no-op if nothing was written).
  void apply_tear(std::uint64_t torn_bytes);

 private:
  /// Opens `path` (append or truncate) and lets `writer` stream the
  /// bytes into it, unless the crash instant has passed. Records the
  /// write's offset and size for apply_tear.
  bool durable_write(const std::filesystem::path& path, bool append, double at,
                     const std::function<void(std::ostream&)>& writer);

  const DurabilityConfig& config_;
  unsigned shard_;
  std::filesystem::path dir_;
  const CrashState* crash_;
  SnapshotStore store_;
  std::filesystem::path log_path_;

  std::uint64_t log_batches_ = 0;
  std::uint64_t log_ops_ = 0;
  std::uint64_t snapshots_ = 0;
  std::uint64_t logged_since_snapshot_ = 0;
  /// An image of this generation's state is on disk (the recovery
  /// checkpoint counts).
  bool has_snapshot_ = false;

  struct LastWrite {
    std::filesystem::path path;
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
  };
  LastWrite last_write_;
};

/// One durability domain per serving stack: the per-shard writers plus
/// the shared crash state.
class DurabilityDomain {
 public:
  DurabilityDomain(DurabilityConfig config, unsigned num_shards);

  const DurabilityConfig& config() const { return config_; }
  unsigned num_shards() const { return static_cast<unsigned>(shards_.size()); }
  ShardDurability* shard(unsigned s) { return shards_[s].get(); }

  /// Arms the crash: durable writes at virtual time >= `at` are dropped.
  void set_crash_time(double at) { crash_.at = at; }

  /// Seals a crash after the run: tears `torn_bytes` off `torn_shard`'s
  /// last surviving write. The domain is dead afterwards — recovery
  /// builds a fresh one.
  void apply_crash(unsigned torn_shard, std::uint64_t torn_bytes);

  std::uint64_t total_log_batches() const;
  std::uint64_t total_snapshots_written() const;

 private:
  DurabilityConfig config_;
  CrashState crash_;
  std::vector<std::unique_ptr<ShardDurability>> shards_;
};

}  // namespace harmonia::persist
