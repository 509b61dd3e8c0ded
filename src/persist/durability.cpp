#include "persist/durability.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/expect.hpp"

namespace harmonia::persist {

std::filesystem::path DurabilityConfig::shard_dir(unsigned shard) const {
  char buf[16];
  std::snprintf(buf, sizeof buf, "shard-%04u", shard);
  return std::filesystem::path(dir) / buf;
}

ShardDurability::ShardDurability(const DurabilityConfig& config, unsigned shard,
                                 const CrashState* crash)
    : config_(config),
      shard_(shard),
      dir_(config.shard_dir(shard)),
      crash_(crash),
      store_(dir_),
      log_path_(dir_ / "update.log") {
  std::filesystem::create_directories(dir_);
  if (config.recover) {
    // Post-recovery restart: the checkpoint the RecoveryManager just
    // wrote already captures the served state.
    has_snapshot_ = !store_.list().empty();
  } else {
    // Fresh start (bulk build): stale on-disk state from an earlier run
    // does not describe this generation's base — wipe the shard's
    // artifacts so the log and snapshots always match the served state
    // (and a repeated run is bit-identical).
    std::filesystem::remove(log_path_);
    store_.prune(0);
  }
}

namespace {

std::uint64_t size_of(const std::filesystem::path& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : size;
}

}  // namespace

bool ShardDurability::durable_write(const std::filesystem::path& path, bool append, double at,
                                    const std::function<void(std::ostream&)>& writer) {
  if (crash_ != nullptr && crash_->dead(at)) return false;  // process is gone
  const std::uint64_t offset = append ? size_of(path) : 0;
  std::ofstream os(path, std::ios::binary | (append ? std::ios::app : std::ios::trunc));
  HARMONIA_CHECK_MSG(os.good(), "cannot open " << path.string());
  writer(os);
  os.flush();
  HARMONIA_CHECK_MSG(os.good(), "write failure on " << path.string());
  // The file's growth is what this call wrote. (Under std::ios::app the
  // standard does not make tellp() the end of the file before the first
  // write, so the stream's position is not used.)
  last_write_ = {path, offset, size_of(path) - offset};
  return true;
}

void ShardDurability::log_batch(std::uint64_t epoch, std::span<const queries::UpdateOp> ops,
                                double at) {
  const std::string record = UpdateLog::encode(epoch, ops);
  const auto append = [&record](std::ostream& os) {
    os.write(record.data(), static_cast<std::streamsize>(record.size()));
  };
  if (!durable_write(log_path_, /*append=*/true, at, append)) return;
  ++log_batches_;
  log_ops_ += ops.size();
  ++logged_since_snapshot_;
}

bool ShardDurability::maybe_snapshot(std::uint64_t epoch, const HarmoniaIndex& index, bool force,
                                     double at) {
  const bool due =
      config_.snapshot_every > 0 && logged_since_snapshot_ >= config_.snapshot_every;
  if (!force && !due) return false;
  if (logged_since_snapshot_ == 0 && has_snapshot_) return false;  // nothing new to capture
  // The image streams from the tree into the file: no in-memory copy.
  const auto save = [&](std::ostream& os) { index.tree().save(os, index.snapshot_extras()); };
  if (!durable_write(store_.path_for(epoch), /*append=*/false, at, save)) return false;
  ++snapshots_;
  logged_since_snapshot_ = 0;
  has_snapshot_ = true;
  store_.prune(config_.retain);
  return true;
}

void ShardDurability::apply_tear(std::uint64_t torn_bytes) {
  if (torn_bytes == 0 || last_write_.size == 0) return;
  const std::uint64_t chopped = std::min(torn_bytes, last_write_.size);
  std::error_code ec;
  std::filesystem::resize_file(last_write_.path, last_write_.offset + last_write_.size - chopped,
                               ec);
  HARMONIA_CHECK_MSG(!ec, "cannot tear " << last_write_.path.string() << ": " << ec.message());
}

DurabilityDomain::DurabilityDomain(DurabilityConfig config, unsigned num_shards)
    : config_(std::move(config)) {
  HARMONIA_CHECK_MSG(config_.enabled(), "durability domain needs a non-empty directory");
  HARMONIA_CHECK_MSG(num_shards > 0, "durability domain needs at least one shard");
  HARMONIA_CHECK_MSG(config_.retain >= 2,
                     "durability domain needs retain >= 2 (a torn newest image must "
                     "leave an intact predecessor), got " << config_.retain);
  shards_.reserve(num_shards);
  for (unsigned s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<ShardDurability>(config_, s, &crash_));
  }
}

void DurabilityDomain::apply_crash(unsigned torn_shard, std::uint64_t torn_bytes) {
  HARMONIA_CHECK_MSG(torn_shard < shards_.size(),
                     "torn shard " << torn_shard << " out of range (" << shards_.size()
                                   << " shards)");
  shards_[torn_shard]->apply_tear(torn_bytes);
}

std::uint64_t DurabilityDomain::total_log_batches() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->log_batches();
  return total;
}

std::uint64_t DurabilityDomain::total_snapshots_written() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->snapshots_written();
  return total;
}

}  // namespace harmonia::persist
