#include "serve/epoch_updater.hpp"

#include <string>
#include <utility>
#include <vector>

#include "common/expect.hpp"

namespace harmonia::serve {

EpochUpdater::EpochUpdater(HarmoniaIndex& index, const TransferModel& link,
                           const EpochConfig& config)
    : index_(index), link_(link), config_(config) {
  HARMONIA_CHECK(config_.max_buffered > 0);
  HARMONIA_CHECK(config_.apply_threads > 0);
  // Incremental mode needs the device overlay arrays (only grow — a
  // caller may have pre-sized a larger bound).
  if (config_.mode == EpochMode::kIncremental &&
      index_.overlay_capacity() < config_.overlay_capacity) {
    index_.set_overlay_capacity(config_.overlay_capacity);
  }
}

void EpochUpdater::set_observer(const obs::Observer& obs, unsigned shard) {
  obs_ = obs;
  shard_ = shard;
  if (obs.metrics == nullptr) return;
  obs::MetricsRegistry& m = *obs.metrics;
  const std::string sl = "{shard=\"" + std::to_string(shard) + "\"}";
  const auto edges = obs::LatencyHistogram::exponential_edges(1e-7, 1.0, 28);
  epochs_total_ = &m.counter("serve_epochs_total" + sl);
  ops_total_ = &m.counter("serve_epoch_ops_total" + sl);
  ops_failed_ = &m.counter("serve_epoch_ops_failed_total" + sl);
  apply_hist_ = &m.histogram("serve_epoch_apply_seconds" + sl, edges);
  resync_hist_ = &m.histogram("serve_epoch_resync_seconds" + sl, edges);
  swap_wait_hist_ = &m.histogram("serve_epoch_swap_wait_seconds" + sl, edges);
  stall_hist_ = &m.histogram("serve_epoch_stall_seconds" + sl, edges);
  patch_build_hist_ = &m.histogram("serve_epoch_patch_build_seconds" + sl, edges);
  patch_upload_hist_ = &m.histogram("serve_epoch_patch_upload_seconds" + sl, edges);
  compaction_build_hist_ =
      &m.histogram("serve_epoch_compaction_build_seconds" + sl, edges);
  compaction_upload_hist_ =
      &m.histogram("serve_epoch_compaction_upload_seconds" + sl, edges);
}

void EpochUpdater::charge(Work& w) const {
  w.patch_seconds = static_cast<double>(w.patch_ops) * config_.seconds_per_patch_op;
  w.fold_seconds = apply_seconds(w.fold_ops);
}

double EpochUpdater::resync(double build_done) {
  double seconds = image_resync_seconds(index_.committed(), link_);
  if (injector_ != nullptr && injector_->active()) {
    const double end = build_done + seconds;
    const double factor = injector_->transfer_factor(shard_, end);
    seconds *= factor;
    if (injector_->maybe_corrupt_resync(shard_, index_, end))
      seconds += factor * injector_->audit_and_repair(shard_, index_, link_, end);
  }
  return seconds;
}

EpochUpdater::Work EpochUpdater::stage(std::uint64_t epoch,
                                       std::span<const queries::UpdateOp> ops,
                                       double log_at, bool may_patch) {
  HARMONIA_CHECK(!inflight_);
  HARMONIA_CHECK(!ops.empty());
  // Write-ahead: the batch reaches the log before it touches the index,
  // so a crash after this line replays it, and a crash during the append
  // loses at most this (unapplied, unacknowledged) batch's tail record.
  if (durability_ != nullptr) durability_->log_batch(epoch, ops, log_at);
  inflight_ = true;
  epoch_ = epoch;

  Work w;
  w.ops = ops.size();
  std::size_t absorbed = 0;
  if (config_.mode == EpochMode::kIncremental && may_patch) {
    const auto pr = index_.patch_update(ops);
    w.stats = pr.stats;
    if (!pr.exhausted) {
      // Patch epoch: the host tree + overlay mirror are already updated;
      // commit flushes only the queued leaf records and overlay arrays —
      // pr.patch_bytes on the link instead of a full image upload, and no
      // Algorithm-1 build at all.
      patch_ = w.patch = true;
      patch_bytes_ = pr.patch_bytes;
      w.patch_ops = ops.size();
      charge(w);
      return w;
    }
    // Gaps/overlay exhausted: compaction fallback. The absorbed prefix
    // is already in the host tree and its patch work is charged; the
    // rest folds into a full build on top of it.
    w.patch_ops = pr.absorbed;
    absorbed = pr.absorbed;
  }
  // The committed overlay replays ahead of the unabsorbed tail so the
  // rebuilt image subsumes it. Outside incremental mode the overlay is
  // empty and this is a plain build. The replays are real CPU work
  // (charged) but not client ops — back them out of the stats (replays
  // never fail: a live entry re-inserts, a tombstone deletes a key still
  // in the base).
  patch_ = false;
  const std::uint64_t replay_live = index_.overlay_live_count();
  const std::uint64_t replay_tomb = index_.overlay_tombstone_count();
  std::vector<queries::UpdateOp> fold = index_.overlay_as_ops();
  fold.insert(fold.end(), ops.begin() + static_cast<std::ptrdiff_t>(absorbed),
              ops.end());
  UpdateStats st = index_.stage_update(fold, config_.apply_threads).stats;
  HARMONIA_CHECK(st.inserts >= replay_live && st.deletes >= replay_tomb);
  st.inserts -= replay_live;
  st.deletes -= replay_tomb;
  w.stats += st;
  w.fold_ops = fold.size();
  charge(w);
  return w;
}

double EpochUpdater::staged_transfer(double seconds, double start) {
  if (injector_ == nullptr || !injector_->active()) return seconds;
  seconds *= injector_->transfer_factor(shard_, start + seconds);
  return seconds + injector_->audit_staged(shard_, seconds, start + seconds);
}

double EpochUpdater::upload(double build_done) {
  HARMONIA_CHECK(inflight_);
  const double seconds = staged_transfer(
      patch_ ? link_.seconds(patch_bytes_)
             : image_resync_seconds(index_.tree(), link_),
      build_done);
  if (obs_.trace != nullptr) {
    const std::string tag =
        " epoch=" + std::to_string(epoch_) + (patch_ ? " patch" : "");
    obs_.trace->annotate(build_done, shard_, "epoch upload start" + tag);
    obs_.trace->annotate(build_done + seconds, shard_, "epoch staged ready" + tag);
  }
  return seconds;
}

void EpochUpdater::commit() {
  HARMONIA_CHECK(inflight_);
  // Either way the change lands whole at the batch boundary the caller
  // picked.
  if (patch_)
    index_.commit_patch();
  else
    index_.commit_staged({});
  inflight_ = false;
}

void EpochUpdater::snapshot(std::uint64_t epoch, bool compaction, double at) {
  if (durability_ == nullptr) return;
  const bool force = config_.mode == EpochMode::kIncremental && compaction;
  durability_->maybe_snapshot(epoch, index_, force, at);
}

void EpochUpdater::observe(const Work& w, double upload_seconds,
                           double swap_wait, double stall) {
  if (obs_.metrics == nullptr) return;
  const double build = w.build_seconds();
  epochs_total_->inc();
  ops_total_->inc(w.stats.total_ops());
  ops_failed_->inc(w.stats.failed);
  apply_hist_->observe(build);
  resync_hist_->observe(upload_seconds);
  swap_wait_hist_->observe(swap_wait);
  stall_hist_->observe(stall);
  if (w.patch) {
    patch_build_hist_->observe(build);
    patch_upload_hist_->observe(upload_seconds);
  } else {
    compaction_build_hist_->observe(build);
    compaction_upload_hist_->observe(upload_seconds);
  }
}

}  // namespace harmonia::serve
