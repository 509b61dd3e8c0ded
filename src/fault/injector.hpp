// FaultInjector — the run-time side of a FaultPlan, plus the knobs and
// counters of every mitigation the serving stack applies under it.
//
// One injector is owned per serving run (by shard::ShardedServer) and
// threaded by pointer into the layers that pay fault costs:
//   BatchScheduler : transfer slowdown scaling + transient dispatch
//                    failures answered with bounded exponential-backoff
//                    retries (shed after the retry budget);
//   EpochUpdater   : epoch image transfers — slowdown stretch, resync
//                    corruption injection, CRC32 audit, re-image;
//   ShardedServer  : shard-lost fencing, CPU-oracle degraded serving,
//                    timed restore + re-image.
//
// Everything is deterministic: the plan decides *what* fails and *when*;
// the injector only tracks which events have been consumed and tallies a
// FaultReport. An inactive injector (empty plan) is never consulted, so
// fault-free runs are bit-identical to pre-fault behaviour.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "fault/fault_plan.hpp"
#include "qos/priority.hpp"
#include "harmonia/index.hpp"
#include "harmonia/pipeline.hpp"
#include "obs/observer.hpp"

namespace harmonia::fault {

/// Bounded retry with exponential backoff for failed batch dispatches.
/// Deadline-aware twice over: each backoff delay is capped (the schedule
/// is fixed in BatchScheduler::faulted_finish), and the whole budget is
/// `max_attempts` tries — after that the batch is shed (its requests
/// answer `dropped`) rather than holding the lane forever.
struct RetryPolicy {
  unsigned max_attempts = 4;
};

/// CPU-oracle serving for a fenced (lost) shard: correct but slow. The
/// modeled host costs are fixed per-op charges on the virtual clock
/// (ShardedServer::degraded_serve); admission for the fenced range sheds
/// once the CPU backlog exceeds max_backlog.
struct DegradedPolicy {
  double max_backlog = 2e-3;
};

struct MitigationConfig {
  RetryPolicy retry;
  DegradedPolicy degraded;
};

/// Typed counters of everything injected, detected, and mitigated.
/// Surfaced through serve::ServerReport and dumped as a
/// deterministic CSV row (the CI replay gate diffs these bytes).
struct FaultReport {
  // Injected.
  std::uint64_t slowdown_windows = 0;
  std::uint64_t dispatch_failures = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t shards_lost = 0;
  // Detected.
  std::uint64_t audits = 0;
  std::uint64_t checksum_mismatches = 0;
  // Mitigated.
  std::uint64_t retries = 0;
  std::uint64_t retry_shed_batches = 0;
  std::uint64_t retry_shed_requests = 0;
  /// retry_shed_requests split by the shed batch's priority class
  /// (single-class lanes: a shed batch charges exactly one class).
  std::array<std::uint64_t, qos::kNumClasses> retry_shed_by_class{};
  std::uint64_t reimages = 0;
  std::uint64_t degraded_points = 0;
  std::uint64_t degraded_ranges = 0;
  std::uint64_t degraded_shed = 0;
  std::uint64_t shards_restored = 0;
  // Replica groups (K > 1): losses absorbed by failover instead of
  // fencing, and log-shipped catch-up work on rejoin.
  std::uint64_t replicas_lost = 0;
  std::uint64_t replicas_rejoined = 0;
  std::uint64_t catchup_ops = 0;
  double catchup_seconds = 0.0;
  double backoff_seconds = 0.0;
  double reimage_seconds = 0.0;
  double degraded_seconds = 0.0;
  double fenced_seconds = 0.0;

  bool operator==(const FaultReport&) const = default;

  static const char* csv_header();
  std::string csv_row() const;
};

class FaultInjector {
 public:
  /// `num_shards` bounds the shard ids events may target (only shard 0
  /// on a single device) and `num_replicas` the replica slots a
  /// lose/replica-lost event may name (1 for unreplicated topologies —
  /// `replica-lost` events then require num_replicas > 1). Throws on an
  /// out-of-range event.
  FaultInjector(FaultPlan plan, const MitigationConfig& mitigation,
                unsigned num_shards, unsigned num_replicas = 1);

  /// False for an empty plan: callers skip every fault branch, keeping
  /// fault-free runs bit-identical to pre-fault behaviour.
  bool active() const { return !events_.empty(); }

  const MitigationConfig& mitigation() const { return mitigation_; }
  FaultReport& report() { return report_; }
  const FaultReport& report() const { return report_; }

  /// Product of the factors of every slowdown window active on `shard`
  /// at `now` (1.0 when none). Counts each window once on first use.
  double transfer_factor(unsigned shard, double now);

  /// Consumes one pending dispatch failure armed for `shard` at `now`.
  bool take_dispatch_failure(unsigned shard, double now);

  /// Consumes a pending corruption event for `shard` (armed at <= now):
  /// flips the event's `bytes` deterministically chosen bytes in the
  /// index's device image (key / prefix-sum / value regions). Returns
  /// true when corruption was injected.
  bool maybe_corrupt_resync(unsigned shard, HarmoniaIndex& index, double now);

  /// CRC32 audit of the device image against the host tree; on mismatch
  /// re-uploads the image and returns the modeled re-image seconds the
  /// caller must charge on the device timeline (0.0 when clean). `now`
  /// only timestamps the trace annotation; it never changes the outcome.
  double audit_and_repair(unsigned shard, HarmoniaIndex& index,
                          const TransferModel& link, double now);

  /// Staged-image counterpart of maybe_corrupt_resync + audit_and_repair
  /// for the double-buffered epoch pipeline: the staging buffer is
  /// audited *before* the swap, so a corruption armed for `shard` (at or
  /// before `now`) never reaches serving — the old image keeps serving
  /// and the staged upload is simply redone. Consumes the event, tallies
  /// one audit (plus corruption/mismatch/re-image on a hit), and returns
  /// the extra seconds (`upload_seconds`, the re-upload) to add before
  /// the staged image is swap-ready; 0.0 when the audit comes back clean.
  double audit_staged(unsigned shard, double upload_seconds, double now);

  /// Consumes the earliest armed loss event (`lose` or `replica-lost`)
  /// at or before `now`. The caller decides between replica failover and
  /// full-shard fencing, then books the outcome with book_loss.
  std::optional<FaultEvent> take_shard_lost(double now);

  /// Books one fired loss by its outcome, exactly once: `fenced` (the
  /// shard serves degraded) tallies shards_lost, an absorbed loss (the
  /// group's survivors keep serving) replicas_lost — report, metric
  /// counter and trace note alike.
  void book_loss(const FaultEvent& ev, bool fenced, double now);

  /// Arm time of the next unconsumed loss event (+inf when none):
  /// the extra wakeup the sharded event loop schedules.
  double next_shard_lost_time() const;

  /// Attaches metrics + tracing: injected/detected events bump fault_*
  /// counters and land as stage=annotation trace events on the same
  /// virtual timeline as the request lifecycle stamps.
  void set_observer(const obs::Observer& obs);

 private:
  /// Bumps the cached counter (if observed) and records the annotation.
  void note_event(obs::Counter* counter, double at, unsigned shard,
                  std::string note);

  struct State {
    FaultEvent ev;
    unsigned remaining = 0;  // dispatch failures left / 1 for one-shot kinds
    bool counted = false;    // slowdown window already tallied
  };

  std::vector<State> events_;
  MitigationConfig mitigation_;
  unsigned num_shards_;
  unsigned num_replicas_;
  FaultReport report_;
  obs::Observer obs_;
  obs::Counter* slowdowns_ = nullptr;
  obs::Counter* failures_ = nullptr;
  obs::Counter* corruptions_ = nullptr;
  obs::Counter* audits_ = nullptr;
  obs::Counter* mismatches_ = nullptr;
  obs::Counter* reimages_ = nullptr;
  obs::Counter* losses_ = nullptr;
  obs::Counter* replica_losses_ = nullptr;
};

}  // namespace harmonia::fault
