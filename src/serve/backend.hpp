// serve::Backend — the one serving interface over any topology.
//
// Backend is a template method: the base class owns the deterministic
// virtual-clock event loop — next event is the earliest of (arrival,
// batch trigger, epoch trigger, staged image swap), with fault/restore
// events cutting ahead of same-instant work — and the implementation
// (shard::ShardedServer, which serves every shard count including one)
// supplies the topology hooks (submit a query, dispatch the most urgent
// batch, gate a swap, drain).
//
// Backend also owns what every topology shares: one BatchScheduler and
// one EpochUpdater (the per-shard epoch engine) per shard, the fault
// injector, the update buffer and epoch trigger, the cross-shard epoch
// composition (barrier, scatter, summed build, max upload, staggered
// swaps), the update and query response accounting, and the tunables
// swap-boundary latch.
//
// Callers hold a Backend&, run a stream, and read one ServerReport. See
// the migration note in docs/serving.md.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "fault/injector.hpp"
#include "obs/observer.hpp"
#include "qos/admission.hpp"
#include "qos/priority.hpp"
#include "serve/batch_scheduler.hpp"
#include "serve/epoch_updater.hpp"
#include "serve/options.hpp"
#include "serve/request.hpp"
#include "serve/tunables.hpp"
#include "serve/workload.hpp"

namespace harmonia::serve {

struct ServerReport {
  /// Every request's outcome (including drops), in service order.
  std::vector<Response> responses;

  /// Seconds, over completed (non-dropped) queries.
  Summary latency;
  Summary queue_delay;
  /// Requests per dispatched query batch.
  Summary batch_size;
  /// Scheduler depth sampled at each query admission attempt.
  Summary queue_depth;

  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;
  std::uint64_t dropped = 0;
  std::uint64_t completed = 0;  // non-dropped queries served
  /// Admitted queries later answered `dropped` by a fault mitigation
  /// (retry budget exhausted / degraded-mode backlog). Kept apart from
  /// `dropped` so admitted + dropped == arrivals holds under faults.
  std::uint64_t shed = 0;
  /// Update *requests* admitted into the epoch buffer (each produces one
  /// update response; distinct from updates_applied, which counts ops and
  /// excludes failed ones). Closes the admission identity below.
  std::uint64_t update_requests = 0;
  /// Admission rejects due to per-tenant token-bucket throttling (a
  /// subset of `dropped`: a throttled request is answered dropped, it is
  /// just dropped *before* the queue rather than by backpressure).
  std::uint64_t throttled = 0;
  std::uint64_t batches = 0;
  std::uint64_t epochs = 0;
  std::uint64_t updates_applied = 0;
  std::uint64_t updates_failed = 0;

  /// Per-priority-class splits of the stream-level counters above
  /// (indexed by qos::index). Each array sums to its scalar counterpart;
  /// single-class streams put everything in gold. class_shed includes
  /// both fault shedding and QoS overload eviction.
  std::array<std::uint64_t, qos::kNumClasses> class_arrivals{};
  std::array<std::uint64_t, qos::kNumClasses> class_admitted{};
  std::array<std::uint64_t, qos::kNumClasses> class_dropped{};
  std::array<std::uint64_t, qos::kNumClasses> class_throttled{};
  std::array<std::uint64_t, qos::kNumClasses> class_completed{};
  std::array<std::uint64_t, qos::kNumClasses> class_shed{};
  std::array<std::uint64_t, qos::kNumClasses> class_update_requests{};
  /// Seconds over completed queries, split by class (class_latency[c]
  /// has exactly class_completed[c] samples).
  std::array<Summary, qos::kNumClasses> class_latency{};

  /// Virtual time of the last completion.
  double makespan = 0.0;
  /// Device-occupied time (batch service + epoch stalls).
  double busy_seconds = 0.0;

  /// Epoch-pipeline attribution (docs/serving.md#epoch-pipeline), summed
  /// over epochs: modeled CPU build (Algorithm-1 apply), PCIe image
  /// upload, staged-image wait for its swap boundary, and device serving
  /// time lost to epochs. Quiesce mode stalls every device for
  /// build+upload (stall > 0, swap wait 0); the double-buffered overlap
  /// mode pays only the swap (stall 0) — the E13 sweep plots the delta.
  double epoch_build_seconds = 0.0;
  double epoch_upload_seconds = 0.0;
  double epoch_swap_wait_seconds = 0.0;
  double epoch_stall_seconds = 0.0;

  /// Incremental-mode split of the epoch totals above: an epoch books as
  /// "patch" when it edited the committed image in place (every staged
  /// shard patched), as "compaction" when any shard rebuilt a full image
  /// — which includes all quiesce and overlap epochs. The pairs sum to
  /// epochs / epoch_build_seconds / epoch_upload_seconds exactly.
  std::uint64_t patch_epochs = 0;
  std::uint64_t compaction_epochs = 0;
  double epoch_patch_build_seconds = 0.0;
  double epoch_patch_upload_seconds = 0.0;
  double epoch_compaction_build_seconds = 0.0;
  double epoch_compaction_upload_seconds = 0.0;

  /// Durability tallies (zero when no durability domain is wired):
  /// write-ahead log appends and snapshot images written, summed over
  /// shards. Purely additive — no serving identity involves them.
  std::uint64_t log_batches = 0;
  std::uint64_t snapshots_written = 0;

  /// Injection/detection/mitigation tallies (all zero on fault-free runs).
  fault::FaultReport faults;

  // Per-shard extras (one entry per shard, a single one on one device).

  /// Query batches dispatched / queries served per shard.
  std::vector<std::uint64_t> shard_batches;
  std::vector<std::uint64_t> shard_queries;
  /// Per-shard admissions and drops, tallied exactly once at the routing
  /// point: a query counts toward the shard its routing starts at
  /// (points: the owner shard; ranges: the first shard of the span), so
  /// each vector sums to its stream-level counter. The schedulers' own
  /// admitted()/rejected() tallies cannot be aggregated here — they
  /// count every fan-out sub-request (double-counting straddling
  /// ranges) and never see all-or-nothing probe drops (omitting them).
  std::vector<std::uint64_t> shard_admitted;
  std::vector<std::uint64_t> shard_dropped;
  /// Range requests that fanned out across >1 shard.
  std::uint64_t split_ranges = 0;
  /// Scan requests whose [lo, n) coverage straddled >1 shard.
  std::uint64_t split_scans = 0;
  /// Device idle time summed over shards while quiesce epoch barriers
  /// gathered the slowest shard (0 in overlap mode — no barrier).
  double barrier_wait_seconds = 0.0;

  /// Replica-group extras (docs/sharding.md#replica-groups): batches per
  /// replica slot, flattened shard-major ([shard * K + replica]). Sums
  /// to `batches`, and each shard's K slots sum to its shard_batches
  /// entry.
  std::vector<std::uint64_t> replica_batches;

  /// Live-resharding extras (docs/sharding.md#live-resharding). The plan
  /// version starts at 1 and bumps once per committed migration, so
  /// plan_version == 1 + migrations.
  unsigned plan_version = 1;
  std::uint64_t migrations = 0;
  /// Keys moved across the split boundary, summed over migrations.
  std::uint64_t migrated_keys = 0;
  /// Modeled host CPU building the two post-split images / concurrent
  /// PCIe upload of the staged pair (slowest side per migration).
  double migration_build_seconds = 0.0;
  double migration_upload_seconds = 0.0;

  /// Completed queries per virtual second, end to end.
  double query_throughput() const {
    return makespan > 0.0 ? static_cast<double>(completed) / makespan : 0.0;
  }
  /// Completed queries per device-busy second: the capacity the batching
  /// achieved, independent of how hard the workload pushed.
  double service_rate() const {
    return busy_seconds > 0.0 ? static_cast<double>(completed) / busy_seconds : 0.0;
  }

  /// Accounting identities every fully-drained run must satisfy; run()
  /// asserts them before returning (two prior serving PRs each shipped a
  /// silent tally bug such an invariant would have tripped). At close
  /// nothing is in flight, so:
  ///   arrivals == admitted + dropped
  ///   admitted == completed + shed + update_requests
  ///   responses.size() == arrivals  (every request answered exactly once)
  /// per priority class (for each counter with a class_* split):
  ///   class_x[c] sums to x;  class_arrivals[c] == class_admitted[c] +
  ///   class_dropped[c];  class_admitted[c] == class_completed[c] +
  ///   class_shed[c] + class_update_requests[c];
  ///   class_latency[c].count() == class_completed[c];
  ///   class_throttled[c] <= class_dropped[c]
  /// and, once the shard vectors are filled (every run fills them):
  ///   sum(shard_admitted) + update_requests == admitted
  ///   sum(shard_dropped) == dropped
  ///   sum(shard_batches) == batches
  ///   sum(replica_batches) == batches, with each shard's K slots
  ///   summing to its shard_batches entry (when replica_batches is
  ///   populated);  plan_version == 1 + migrations
  /// Throws ContractViolation on violation.
  void check_invariants() const;
};

class Backend {
 public:
  virtual ~Backend() = default;

  /// Runs the stream to completion (drains all lanes, commits any staged
  /// epoch, applies leftover updates) and returns the aggregate report
  /// with its invariants checked.
  ServerReport run(RequestSource& source);
  /// Open-loop convenience: serve a pre-built, arrival-sorted stream.
  ServerReport run(std::span<const Request> requests);

  unsigned num_shards() const { return static_cast<unsigned>(engines_.size()); }

  /// The currently adopted runtime snapshot (docs/serving.md#autotuner).
  /// Inside a staged-epoch window this is the *target*: the image/PSA
  /// knobs may still be latched — effective_query_knobs() reports what
  /// the dispatch path is actually using.
  const Tunables& tunables() const { return tunables_; }

  /// Validates `t` against the construction-time options and adopts it.
  /// Scheduler knobs (max_batch/max_wait) take effect at the next batch
  /// formation, apply_threads at the next epoch trigger; the image/PSA
  /// knobs (group_size/sort_bits) install immediately when every shard
  /// serves one committed image, otherwise they latch and land at the
  /// epoch-swap boundary (the last shard's swap, or a migration's plan
  /// flip). Throws ContractViolation (nothing adopted) on an invalid
  /// snapshot.
  void apply_tunables(const Tunables& t, double now);

  /// The (group_size, sort_bits) pair dispatches are using right now —
  /// equals tunables()'s pair except while a snapshot is latched for a
  /// swap boundary. Knobs install fleet-wide, so shard 0 speaks for every
  /// scheduler. The swap stress tests pin that window.
  std::pair<unsigned, unsigned> effective_query_knobs() const {
    return {sched_[0]->group_size(), sched_[0]->sort_bits()};
  }

 protected:
  static constexpr double kNever = std::numeric_limits<double>::infinity();

  /// Validates `config` against the topology and builds one scheduler
  /// and one epoch engine per shard index (every shard must hold keys),
  /// wired to the fault injector, the durability domain and the
  /// observer; registers the per-class and tuning metrics.
  Backend(const ServeOptions& config, const std::vector<HarmoniaIndex*>& shards);

  // ---- Topology hooks ----

  /// Called once before the loop (size per-shard report vectors, ...).
  virtual void begin_run(ServerReport& report) = 0;

  /// Earliest instant a closed batch can start on a free device; kNever
  /// when every scheduler is idle.
  virtual double next_batch_time(double now) const = 0;
  /// Dispatches the most urgent ready batch at `now` (the instant
  /// next_batch_time returned).
  virtual void dispatch_ready_batch(double now, RequestSource& source,
                                    ServerReport& report) = 0;

  /// Routes one query arrival (updates never reach this hook — the loop
  /// buffers them for the next epoch). Accounts admitted/dropped itself.
  virtual void submit(const Request& r, RequestSource& source,
                      ServerReport& report) = 0;

  /// The shard owning `key` (the update scatter routes by it).
  virtual unsigned shard_of(Key key) const = 0;
  /// Quiesce epochs: serves every queued query batch at `at` so
  /// everything admitted before the trigger sees the pre-epoch images.
  virtual void drain_queries(double at, RequestSource& source,
                             ServerReport& report) = 0;
  /// Every device timeline (replicas included) a quiesce barrier waits
  /// for and then holds through the epoch.
  virtual std::span<double> device_timelines() = 0;
  /// Earliest instant shard `s` can swap a staged image that is ready at
  /// `ready` (a batch boundary on its devices); kNever while blocked.
  virtual double swap_time(unsigned s, double ready) const = 0;
  /// Whether shard `s` may patch its live image in place this epoch.
  virtual bool may_patch(unsigned s) const = 0;
  /// Shard `s` now serves epoch `epoch`, having absorbed `ops` client
  /// ops in it (0 for an untouched shard).
  virtual void on_swapped(unsigned s, unsigned epoch, std::uint64_t ops) = 0;
  /// True while a topology change owns the staging machinery (a live
  /// migration): updates keep buffering and image knobs keep latching.
  virtual bool staging_busy() const = 0;
  /// Runs after the last swap of a staged epoch, once its update
  /// responses are out (re-admits parked straddlers).
  virtual void after_staged_epoch(double now, RequestSource& source,
                                  ServerReport& report) = 0;

  /// Next atomic image swap; kNever when no staged epoch is swap-ready.
  virtual double next_swap_time() const;
  /// Commits the due shard of the staged epoch at `now`, a batch
  /// boundary; the last shard's swap completes the epoch.
  virtual void epoch_commit(double now, RequestSource& source,
                            ServerReport& report);

  /// Fault hooks: arm times of the next injected fault / due restore
  /// (kNever when none). They cut ahead of same-instant work.
  virtual double next_fault_time() const = 0;
  virtual void handle_fault(double now, RequestSource& source,
                            ServerReport& report) = 0;
  virtual double next_restore_time() const = 0;
  virtual void handle_restore(double now, ServerReport& report) = 0;

  /// Stream exhausted with no armed trigger: flush remaining batches,
  /// commit any staged epoch, apply leftover updates as a last epoch.
  virtual void final_drain(double now, RequestSource& source,
                           ServerReport& report) = 0;
  /// After the loop: attach the fault report and durability tallies,
  /// export end-of-run gauges. Overrides assert their state drained.
  virtual void finish_run(ServerReport& report);

  // ---- Shared machinery ----

  /// A quiesce epoch triggered at `at`: drain, barrier on every device,
  /// apply each shard's ops on one host CPU, resync the touched images
  /// concurrently, reopen every device at the same instant.
  void run_quiesce(double at, RequestSource& source, ServerReport& report);
  bool updates_pending() const { return !pending_updates_.empty(); }
  bool epoch_inflight() const { return inflight_.has_value(); }
  /// True while shards disagree on their epoch version (between the
  /// first and last swap of a staged epoch): new straddlers must park.
  bool mixed_version() const {
    return inflight_.has_value() && inflight_->remaining < num_shards();
  }
  /// True once any unswapped shard's staged image is ready at `now`: a
  /// swap is due, so new straddlers must park instead of pinning the
  /// shard's snapshot again (otherwise the swap starves).
  bool swap_pending(double now) const;
  /// Fully committed epochs (every shard swapped / quiesce applied).
  unsigned epochs() const { return epochs_; }

  /// Fleet-wide swap boundary (a staged epoch's last swap, a quiesce
  /// epoch, a committed migration): installs a latched tunables snapshot
  /// and feeds the controller shard 0's re-profiled knobs.
  void at_fleet_swap_boundary(double now);

  /// Books a completed or shed query response and answers it.
  void deliver(Response resp, RequestSource& source, ServerReport& report);
  /// Answers `r` dropped at `now` without dispatching it; the caller has
  /// booked the counters. `note` goes to the trace reply stamp on `shard`.
  void answer_dropped(const Request& r, double now, unsigned epoch,
                      unsigned shard, const char* note, RequestSource& source,
                      ServerReport& report);
  /// An admission drop: books dropped (per class) and answers it.
  void reject(const Request& r, unsigned epoch, unsigned shard,
              const char* note, RequestSource& source, ServerReport& report);
  /// Per-tenant token-bucket gate at the queue edge: a tenant past its
  /// provisioned rate is booked throttled and rejected (true).
  bool throttle(const Request& r, unsigned epoch, unsigned shard,
                RequestSource& source, ServerReport& report);

  /// Books one controller decision: bumps the matching counter and
  /// annotates the trace ("tune <action> <note>"). kNone is silent.
  void note_tune(TuneAction action, const std::string& note, double now);

  /// The wired controller (null without one).
  TuneController* tuner() const { return tuner_; }

  ServeOptions config_;
  fault::FaultInjector injector_;
  std::vector<std::unique_ptr<BatchScheduler>> sched_;
  std::vector<std::unique_ptr<EpochUpdater>> engines_;

 private:
  /// One shard's share of the staged epoch in flight.
  struct ShardStage {
    bool staged = false;   // this shard has ops
    bool swapped = false;  // image N+1 already installed
    double ready = 0.0;    // staged image uploaded + audited
    double upload_seconds = 0.0;
    EpochUpdater::Work work;
  };

  /// The one staged epoch in flight between its trigger and the last
  /// per-shard swap (single staging buffer).
  struct InflightEpoch {
    unsigned ordinal = 0;  // epoch number every shard will swap to
    double trigger = 0.0;
    double build_seconds = 0.0;
    double build_done = 0.0;
    /// True when every staged shard patched in place (the epoch books as
    /// a patch epoch); any shadow build makes it a compaction epoch.
    bool patch = true;
    UpdateStats stats;  // summed over shards
    std::vector<Request> requests;
    std::vector<ShardStage> shards;
    unsigned remaining = 0;  // shards not yet swapped
  };

  /// Per-class cached metric handles (null when unobserved).
  struct ClassMetrics {
    obs::Counter* completed = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* throttled = nullptr;
    obs::LatencyHistogram* latency = nullptr;
  };

  void buffer_update(const Request& r);
  double next_epoch_time(double now) const;
  void epoch_begin(double now, RequestSource& source, ServerReport& report);
  /// Overlap/incremental trigger: stages every touched shard's epoch.
  void begin_staged(double now);
  /// Installs the staged epoch on shard `s` at `now`.
  void commit_shard(unsigned s, double now, ServerReport& report);
  /// Books the staged epoch after its last swap and answers its updates.
  void finish_staged(double now, RequestSource& source, ServerReport& report);
  /// The buffered ops scattered by shard, in arrival order within each.
  std::vector<std::vector<queries::UpdateOp>> scatter(
      const std::vector<Request>& requests) const;
  void book_epoch(const UpdateStats& stats, double build, double upload,
                  bool patch, ServerReport& report);
  void answer_updates(const std::vector<Request>& requests, double dispatch,
                      double completion, const std::string& note,
                      RequestSource& source, ServerReport& report);
  void install_query_knobs(const Tunables& t);
  void run_tune_tick(double now);

  /// Per-tenant token-bucket throttling at the admission edge.
  qos::AdmissionController admission_;
  std::vector<Request> pending_updates_;
  unsigned epochs_ = 0;
  std::optional<InflightEpoch> inflight_;
  /// Image/PSA knobs latched while a staged epoch (or migration) is in
  /// flight; they install fleet-wide at the next swap boundary.
  std::optional<Tunables> pending_query_;
  TuneController* tuner_ = nullptr;
  Tunables tunables_;
  std::array<ClassMetrics, qos::kNumClasses> class_metrics_{};
  obs::Counter* tune_applied_ = nullptr;
  obs::Counter* tune_vetoed_ = nullptr;
  obs::Counter* tune_rolled_back_ = nullptr;
  /// Fleet-level epoch metrics (the engines' are per shard).
  obs::Counter* epochs_total_ = nullptr;
  obs::LatencyHistogram* swap_wait_hist_ = nullptr;
  obs::LatencyHistogram* stall_hist_ = nullptr;
};

}  // namespace harmonia::serve
