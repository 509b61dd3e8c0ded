// shard::ShardedServer — the one serving class, for every shard count (a
// single device is a one-shard fleet). It owns the deterministic
// virtual-clock event loop: the next event is the earliest of (arrival,
// batch trigger, epoch trigger, staged swap), with fault/restore events
// cutting ahead of same-instant work. Every shard gets its own bounded
// admission queues and deadline-driven batch scheduler, its own epoch
// engine (serve::EpochUpdater), and its own device timeline, so shards
// batch and dispatch independently — the whole point of sharding the
// serving path. The server composes the engines into fleet epochs
// (update buffer, barrier, scatter, summed build, max upload, staggered
// swaps) and owns the response accounting, the tunables swap-boundary
// latch and the fleet metrics. Callers run a stream and read one
// serve::ServerReport (docs/serving.md#one-engine-one-composition).
//
// Three pieces are genuinely cross-shard:
//   Range fan-out  : a range query whose span straddles a partition
//                    boundary is split into per-shard sub-requests
//                    (bounds clamped), admitted all-or-nothing, and its
//                    response is reassembled in shard order when the last
//                    piece completes.
//   Epoch barrier  : in quiesce mode, buffered updates apply as one
//                    cross-shard epoch — the trigger quiesces every
//                    shard and waits for the slowest device (the
//                    barrier), then runs a *held* staged epoch: the same
//                    stage, upload, per-shard commit and booking as
//                    overlap mode, except that each touched image commits
//                    and resyncs in place, every device stalls until the
//                    slowest resync ends, and every shard swaps at that
//                    instant, inside the trigger's event, so admission
//                    reopens on all shards at once
//                    (docs/serving.md#one-engine-one-composition).
//   Version fence  : in overlap mode (the double-buffered pipeline,
//                    docs/serving.md#epoch-pipeline), each shard stages
//                    image N+1 in the background and swaps at its own
//                    batch boundary — staggered, no global barrier. The
//                    fence keeps straddling ranges consistent anyway: a
//                    shard cannot swap while fan-out pieces are queued on
//                    it, and new straddlers arriving while shards
//                    disagree on version are parked until the last swap.
//
// Incremental (delta) mode rides the same fence: each touched shard
// first tries to patch the committed image in place (gap fills + device
// overlay, see harmonia/index.hpp), and only a shard whose gaps or
// overlay are exhausted falls back to a full build — so shard A
// can take a cheap patch commit while shard B compacts, each at its own
// batch boundary, with per-shard overlays compacting independently. The
// commit (leaf flush or image swap alike) still waits for the shard's
// fence to clear, so straddlers never observe a torn version.
// Every query therefore observes a whole number of epochs on every shard
// it touches — there are no torn cross-shard states, which is what the
// stress tests pin.
//
// Replica groups (config.replicas = K > 1): every shard's committed
// image is served by K interchangeable device replicas. Scatter/gather
// picks the earliest-free healthy replica per sub-batch (round-robin on
// ties, so equally-loaded replicas alternate deterministically), epoch
// swaps wait for the whole group to go idle (the group-wide version
// fence), and a lost replica fails over to the survivors — zero
// CPU-oracle degraded queries while any member is healthy. The rejoining
// replica catches up by replaying the epochs after the one it last
// applied, counted from the group's in-memory commit ledger and priced
// as framed update-log bytes; only losing the LAST member falls back
// to the K = 1 fence + degraded path. K = 1 is bit-identical to the
// pre-replica behaviour.
//
// Hot-range splitting (config.reshard.split_hot): per-shard routed-query
// windows are sampled on a virtual-time cadence; a shard running hotter
// than hot_factor x the fleet mean triggers a live migration. A migration
// is a two-shard staged epoch that flips the plan: the hot range is cut
// at its median key, the donor's engine stages the moved keys' deletes
// and the receiver's their inserts while the old plan keeps serving, and
// both commit together with the epoch-versioned ShardPlan in one event,
// with only requests touching the pair parked (plan_version bumps once
// per committed migration; the epoch count does not move).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fault/injector.hpp"
#include "qos/admission.hpp"
#include "serve/batch_scheduler.hpp"
#include "serve/epoch_updater.hpp"
#include "serve/options.hpp"
#include "serve/report.hpp"
#include "serve/tunables.hpp"
#include "serve/workload.hpp"
#include "shard/replica_group.hpp"
#include "shard/sharded_index.hpp"

namespace harmonia::shard {

class ShardedServer {
 public:
  /// Serves every shard of `index` (each holds keys and a live device by
  /// ShardedIndex's construction). Batch/epoch configs are per shard;
  /// the report's shard_* vectors hold one entry each.
  ShardedServer(ShardedIndex& index, const serve::ServeOptions& config);
  /// One device: serves the caller's index as a one-shard fleet (the
  /// server keeps the wrapping ShardedIndex; `index` must outlive it).
  ShardedServer(HarmoniaIndex& index, const serve::ServeOptions& config);

  /// Runs the stream to completion (drains all lanes, commits any staged
  /// epoch, applies leftover updates) and returns the aggregate report
  /// with its invariants checked.
  serve::ServerReport run(serve::RequestSource& source);
  /// Open-loop convenience: serve a pre-built, arrival-sorted stream.
  serve::ServerReport run(std::span<const serve::Request> requests);

  unsigned num_shards() const { return static_cast<unsigned>(engines_.size()); }

  /// The currently adopted runtime snapshot (docs/serving.md#autotuner).
  /// Inside a staged-epoch window this is the *target*: the image/PSA
  /// knobs may still be latched — effective_query_knobs() reports what
  /// the dispatch path is actually using.
  const serve::Tunables& tunables() const { return tunables_; }

  /// Validates `t` against the construction-time options and adopts it.
  /// Scheduler knobs (max_batch/max_wait) take effect at the next batch
  /// formation; the image/PSA knobs (group_size/sort_bits) install
  /// immediately when every shard serves one committed image, otherwise
  /// they latch and land at the epoch-swap boundary (the last shard's
  /// swap, or a migration's plan flip). Throws ContractViolation (nothing
  /// adopted) on an invalid snapshot.
  void apply_tunables(const serve::Tunables& t, double now);

  /// The (group_size, sort_bits) pair dispatches are using right now —
  /// equals tunables()'s pair except while a snapshot is latched for a
  /// swap boundary. Knobs install fleet-wide, so shard 0 speaks for every
  /// scheduler. The swap stress tests pin that window.
  std::pair<unsigned, unsigned> effective_query_knobs() const {
    return {sched_[0]->group_size(), sched_[0]->sort_bits()};
  }

 private:
  static constexpr double kNever = std::numeric_limits<double>::infinity();
  /// Sub-request ids live above this bit so they can never collide with
  /// stream ids (which count up from 0).
  static constexpr std::uint64_t kSubIdBase = 1ULL << 63;

  ShardedServer(std::unique_ptr<ShardedIndex> owned,
                const serve::ServeOptions& config);

  /// One shard's share of the staged epoch in flight.
  struct ShardStage {
    bool staged = false;   // this shard has ops
    bool swapped = false;  // image N+1 already installed
    double ready = 0.0;    // staged image uploaded + audited
    double upload_seconds = 0.0;
    serve::EpochUpdater::Work work;
  };

  /// A live migration's plan flip (docs/sharding.md#live-resharding): the
  /// donor cedes `moved_keys` keys to its adjacent receiver, and the
  /// plan's lower bounds become `new_lo` (ShardPlan has no default ctor,
  /// so the bounds travel raw and from_bounds runs at commit).
  struct PlanFlip {
    unsigned donor = 0;
    unsigned receiver = 0;
    std::uint64_t moved_keys = 0;
    std::vector<Key> new_lo;
  };

  /// The one staged epoch in flight between its trigger and the last
  /// per-shard swap (single staging buffer). With a plan flip it stages
  /// only the migrating pair, which commits in one event without an epoch
  /// bump or booking.
  struct InflightEpoch {
    unsigned ordinal = 0;  // epoch number every shard will swap to
    double trigger = 0.0;
    /// A quiesce epoch: every device is held from the trigger (the
    /// barrier) until the slowest resync ends, and all shards swap then,
    /// inside the trigger's event.
    bool held = false;
    double build_seconds = 0.0;
    double build_done = 0.0;
    /// True when every staged shard patched in place (the epoch books as
    /// a patch epoch); any full build makes it a compaction epoch.
    bool patch = true;
    UpdateStats stats;  // summed over shards
    std::vector<serve::Request> requests;
    std::vector<ShardStage> shards;
    unsigned remaining = 0;  // shards not yet swapped
    std::optional<PlanFlip> flip;
  };

  /// Per-class cached metric handles (null when unobserved).
  struct ClassMetrics {
    obs::Counter* completed = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* throttled = nullptr;
    obs::LatencyHistogram* latency = nullptr;
  };

  struct PendingMerge {
    std::size_t parts_expected = 0;
    /// (shard, part) pairs; merged in shard order on completion.
    std::vector<std::pair<unsigned, serve::Response>> parts;
    serve::Request original;
  };

  // ---- Event loop and epoch composition (serving_loop.cpp) ----

  /// Earliest instant a closed batch can start on a free device; kNever
  /// when every scheduler is idle.
  double next_batch_time(double now) const;
  /// Dispatches the most urgent ready batch at `now` (the instant
  /// next_batch_time returned).
  void dispatch_ready_batch(double now, serve::RequestSource& source,
                            serve::ServerReport& report);
  void buffer_update(const serve::Request& r);
  double next_epoch_time(double now) const;
  void epoch_begin(double now, serve::RequestSource& source,
                   serve::ServerReport& report);
  /// A quiesce epoch triggered at `at`: drain, barrier on every device,
  /// then a held staged epoch that every shard swaps to at its finish,
  /// when every device reopens at the same instant.
  void run_quiesce(double at, serve::RequestSource& source,
                   serve::ServerReport& report);
  /// Quiesce epochs: serves every queued query batch at `at` so
  /// everything admitted before the trigger sees the pre-epoch images.
  void drain_queries(double at, serve::RequestSource& source,
                     serve::ServerReport& report);
  /// Stages every touched shard's share of the buffered updates as the
  /// in-flight epoch (`held`: a quiesce epoch, committed by the caller).
  void begin_staged(double now, bool held);
  /// One shard's ops in an epoch: a touched shard's scatter, or one side
  /// of a migration.
  using ShardOps = std::pair<unsigned, std::span<const queries::UpdateOp>>;
  /// Stages each side through its engine, in order, and prices the build.
  void stage_epoch(InflightEpoch& ep, std::span<const ShardOps> sides, double now);
  /// Uploads (held: commits and resyncs) each side's image from the
  /// build's end, in order, and sets every shard's ready instant.
  void upload_epoch(InflightEpoch& ep, std::span<const ShardOps> sides);
  /// True once any unswapped shard's staged image is ready at `now` (for
  /// a plan flip: both sides' images): a swap is due, so new straddlers
  /// (or requests touching the migrating pair) must park instead of
  /// pinning a snapshot again (otherwise the swap starves).
  bool swap_pending(double now) const;
  /// Earliest instant shard `s` can swap a staged image that is ready at
  /// `ready` (a batch boundary on its devices); kNever while blocked.
  double swap_time(unsigned s, double ready) const;
  /// Next atomic image swap, or the plan flip: both staged sides ready
  /// AND both shards fully drained (queues empty, fences clear, groups
  /// idle); kNever when none is due.
  double next_swap_time() const;
  /// Commits the due plan flip, or the due shard of the staged epoch, at
  /// `now` (a batch boundary); the last shard's swap completes the epoch.
  void epoch_commit(double now, serve::RequestSource& source,
                    serve::ServerReport& report);
  /// Installs the staged epoch on shard `s` at `now`.
  void commit_shard(unsigned s, double now, serve::ServerReport& report);
  /// Shard `s` now serves epoch `epoch`, having absorbed `ops` client
  /// ops in it (0 for an untouched shard).
  void on_swapped(unsigned s, unsigned epoch, std::uint64_t ops);
  /// Books the staged epoch after its last swap, answers its updates and
  /// re-admits the parked straddlers.
  void finish_staged(double now, serve::RequestSource& source,
                     serve::ServerReport& report);
  /// The buffered ops scattered by shard, in arrival order within each.
  std::vector<std::vector<queries::UpdateOp>> scatter(
      const std::vector<serve::Request>& requests) const;
  void book_epoch(const UpdateStats& stats, double build, double upload,
                  bool patch, serve::ServerReport& report);
  void answer_updates(const std::vector<serve::Request>& requests,
                      double dispatch, double completion, const std::string& note,
                      serve::RequestSource& source, serve::ServerReport& report);
  /// Stream exhausted with no armed trigger: flush remaining batches,
  /// commit any staged epoch or migration, apply leftover updates as a
  /// last epoch.
  void final_drain(double now, serve::RequestSource& source,
                   serve::ServerReport& report);
  /// After the loop: asserts everything drained, attaches the fault
  /// report and durability tallies, exports end-of-run gauges.
  void finish_run(serve::ServerReport& report);

  /// Fleet-wide swap boundary (a staged epoch's last swap, a quiesce
  /// epoch, a committed migration): installs a latched tunables snapshot
  /// and feeds the controller shard 0's re-profiled knobs.
  void at_fleet_swap_boundary(double now);
  void install_query_knobs(const serve::Tunables& t);
  void run_tune_tick(double now);
  /// Books one controller decision: bumps the matching counter and
  /// annotates the trace ("tune <action> <note>"). kNone is silent.
  void note_tune(serve::TuneAction action, const std::string& note, double now);

  /// Books a completed or shed query response and answers it.
  void deliver(serve::Response resp, serve::RequestSource& source,
               serve::ServerReport& report);
  /// Answers `r` dropped at `now` without dispatching it; the caller has
  /// booked the counters. `note` goes to the trace reply stamp on `shard`.
  void answer_dropped(const serve::Request& r, double now, unsigned epoch,
                      unsigned shard, const char* note,
                      serve::RequestSource& source, serve::ServerReport& report);
  /// An admission drop: books dropped (per class) and answers it.
  void reject(const serve::Request& r, unsigned epoch, unsigned shard,
              const char* note, serve::RequestSource& source,
              serve::ServerReport& report);
  /// Per-tenant token-bucket gate at the queue edge: a tenant past its
  /// provisioned rate is booked throttled and rejected (true).
  bool throttle(const serve::Request& r, unsigned epoch, unsigned shard,
                serve::RequestSource& source, serve::ServerReport& report);

  // ---- Routing, replicas, faults, migrations (sharded_server.cpp) ----

  /// Routes one query arrival (updates never get here — the loop buffers
  /// them for the next epoch). Accounts admitted/dropped itself.
  void submit(const serve::Request& r, serve::RequestSource& source,
              serve::ServerReport& report);
  void admit_query(const serve::Request& r, double now,
                   serve::RequestSource& source, serve::ServerReport& report);
  void drop(const serve::Request& r, unsigned shard, serve::RequestSource& source,
            serve::ServerReport& report, const char* note = "rejected");
  /// Answers a request evicted from shard `s` by QoS overload policy: it
  /// was admitted, so it sheds (a dropped response). An evicted fan-out
  /// piece lowers the shard's version fence and poisons its merge.
  void handle_evicted(unsigned s, serve::Request victim, double now,
                      serve::RequestSource& source, serve::ServerReport& report);
  /// The first and last shard the request's span touches under the
  /// current plan: the owner for points, the bounds' shards for ranges,
  /// the count-based coverage for scans.
  std::pair<unsigned, unsigned> span_of(const serve::Request& r) const;
  /// True when `r` must park until the in-flight epoch commits: a
  /// straddler while the shards disagree on their epoch version or a swap
  /// is due, or, once a plan flip is due, any request touching the
  /// migrating pair (its routing is about to change).
  bool parks(const serve::Request& r) const;
  void handle_dispatch(unsigned s, unsigned r, serve::BatchScheduler::Dispatch d,
                       serve::RequestSource& source, serve::ServerReport& report);
  /// Routes one finished response: sub-responses park in their merge
  /// slot until the fan-out completes; whole responses go to the report.
  void finish(unsigned s, serve::Response resp, serve::RequestSource& source,
              serve::ServerReport& report);
  /// Re-admits the requests parked across a swap window or plan flip
  /// (original arrivals kept, so their deadlines are already urgent).
  void release_parked(double now, serve::RequestSource& source,
                      serve::ServerReport& report);

  /// Whole-shard fencing (the last healthy replica died): queued work
  /// re-routes to the CPU oracle, the key range serves degraded while
  /// the replacement device re-images, the shard rejoins at restore
  /// time. With K > 1, handle_fault absorbs losses by failover and only
  /// falls through to this when no member survives.
  void fence_shard(unsigned s, unsigned replica, double now, double repair,
                   serve::RequestSource& source, serve::ServerReport& report);
  /// Re-images the earliest due fenced shard and rejoins it; an unswapped
  /// staged piece of the shard commits first (docs/fault_tolerance.md).
  void restore_shard(double now, serve::RequestSource& source,
                     serve::ServerReport& report);
  /// Fires the due loss event: extends a fenced shard's outage or a down
  /// slot's, fails over to the survivors, or fences the shard when the
  /// last healthy member dies. Books the loss by that outcome.
  void handle_fault(double now, serve::RequestSource& source,
                    serve::ServerReport& report);
  /// Earliest due fence restore or replica rejoin (kNever when none).
  double next_restore_time() const;
  void handle_restore(double now, serve::RequestSource& source,
                      serve::ServerReport& report);
  /// Brings the earliest due lost replica back: it catches up by
  /// replaying the committed epochs after the one it last applied (the
  /// epoch_ops_ ledger) plus the shard's staged, unswapped epoch, or by
  /// a full re-image when the plan changed
  /// since it was lost — a migration's boundary move is no epoch.
  void rejoin_replica(double now, serve::ServerReport& report);

  /// Hot-range detection on the virtual-time cadence; starts a migration
  /// when a shard runs hotter than hot_factor x the fleet-mean window.
  void maybe_start_migration(double now);
  /// Stages a plan flip as the in-flight epoch: the donor's engine stages
  /// the moved keys' deletes, the receiver's their inserts.
  void start_migration(unsigned donor, unsigned receiver, double now);
  /// The plan flip: both sides commit and the plan moves in one event.
  void commit_migration(double now, serve::RequestSource& source,
                        serve::ServerReport& report);
  /// Serves one request of a fenced shard's range from its committed
  /// image on the shard's CPU timeline; sheds (dropped response) once the CPU
  /// backlog exceeds the degraded policy's max_backlog.
  serve::Response degraded_serve(unsigned s, const serve::Request& r, double now);

  std::size_t total_depth() const;

  /// Flattened replica-timeline accessors (slot(s, r) = s * K + r).
  std::size_t slot(unsigned s, unsigned r) const {
    return std::size_t{s} * replicas_ + r;
  }
  double& rfree(unsigned s, unsigned r) { return replica_free_[slot(s, r)]; }
  double rfree(unsigned s, unsigned r) const {
    return replica_free_[slot(s, r)];
  }
  std::span<const double> group_span(unsigned s) const {
    return std::span<const double>(replica_free_).subspan(slot(s, 0), replicas_);
  }
  /// Earliest a healthy member of shard `s`'s group frees (the dispatch
  /// gate) / instant the whole group is idle (the swap fence).
  double shard_min_free(unsigned s) const {
    return groups_[s].min_free(group_span(s));
  }
  double group_free(unsigned s) const {
    return groups_[s].max_free(group_span(s));
  }

  serve::ServeOptions config_;
  fault::FaultInjector injector_;
  /// Per-tenant token-bucket throttling at the admission edge.
  qos::AdmissionController admission_;
  std::vector<std::unique_ptr<serve::BatchScheduler>> sched_;
  std::vector<std::unique_ptr<serve::EpochUpdater>> engines_;
  std::vector<serve::Request> pending_updates_;
  /// Fully committed epochs (every shard swapped / quiesce applied).
  unsigned epochs_ = 0;
  std::optional<InflightEpoch> inflight_;
  /// Image/PSA knobs latched while a staged epoch (or plan flip) is in
  /// flight; they install fleet-wide at the next swap boundary.
  std::optional<serve::Tunables> pending_query_;
  serve::TuneController* tuner_ = nullptr;
  serve::Tunables tunables_;

  ShardedIndex& index_;
  /// The one-shard wrapper index_ refers to, when built over a bare
  /// HarmoniaIndex (null otherwise).
  std::unique_ptr<ShardedIndex> owned_index_;
  /// Replica group size K (config.replicas; 1 = unreplicated).
  unsigned replicas_ = 1;
  /// Per-replica device timelines, flattened shard-major: slot(s, r) =
  /// s * K + r. At K = 1 this is the old per-shard device_free_.
  std::vector<double> replica_free_;
  /// Health + catch-up cursor per shard's group.
  std::vector<ReplicaGroup> groups_;
  /// Flattened per-slot rejoin instants for losses absorbed by failover
  /// (kNever = slot healthy or fenced-path, which uses restore_at_).
  std::vector<double> rejoin_at_;
  /// Plan version at the instant each slot was lost: a rejoin whose
  /// shard plan moved since must full-re-image instead of log catch-up.
  std::vector<unsigned> lost_plan_;
  /// The slot the whole-shard fence took down (restore rejoins it).
  std::vector<unsigned> fence_replica_;
  /// Per-shard (epoch, client-op count) ledger, appended at each swap
  /// when K > 1: what a rejoining replica replays, with or without a
  /// durability domain (same per-epoch granularity as the WAL).
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> epoch_ops_;
  /// Per-shard fencing state: fenced shards serve degraded from the CPU
  /// oracle until restore_at_; cpu_free_ is the degraded-path timeline.
  std::vector<char> fenced_;
  std::vector<double> fence_start_;
  std::vector<double> restore_at_;
  std::vector<double> cpu_free_;
  /// Per-shard epoch version: equals epochs_ outside a swap window; the
  /// shards that already took their staggered swap sit at epochs_ + 1.
  /// Stamped into every response the shard serves (device or degraded).
  std::vector<unsigned> shard_epoch_;
  /// Cross-shard version fence: queued fan-out sub-requests per shard.
  /// A shard with a non-zero fence cannot swap — its queued pieces were
  /// admitted against the current snapshot and their siblings may
  /// already have been served from it.
  std::vector<std::size_t> fence_depth_;
  /// Straddling ranges that arrived during a mixed-version window; they
  /// re-admit (original arrival kept) right after the last swap.
  std::vector<serve::Request> parked_;
  /// Bumps once per committed migration; starts (and stays, without
  /// split_hot) at 1 — the report invariant plan_version == 1 +
  /// migrations pins it.
  unsigned plan_version_ = 1;
  unsigned migrations_done_ = 0;
  /// Hot-range detection state: next cadence instant and the per-shard
  /// routed-query window since the last sample.
  double next_detect_ = 0.0;
  std::vector<std::uint64_t> window_routed_;
  std::uint64_t next_sub_id_ = kSubIdBase;
  /// Sub-request id -> parent request id.
  std::map<std::uint64_t, std::uint64_t> parent_of_;
  /// Parent request id -> fan-out reassembly state.
  std::map<std::uint64_t, PendingMerge> merges_;
  /// Cached metric handles (null when unobserved).
  std::array<ClassMetrics, qos::kNumClasses> class_metrics_{};
  obs::Counter* tune_applied_ = nullptr;
  obs::Counter* tune_vetoed_ = nullptr;
  obs::Counter* tune_rolled_back_ = nullptr;
  /// Fleet-level epoch metrics (the engines' are per shard).
  obs::Counter* epochs_total_ = nullptr;
  obs::LatencyHistogram* swap_wait_hist_ = nullptr;
  obs::LatencyHistogram* stall_hist_ = nullptr;
  /// Per shard: the queries its dispatched batches carried (empty when
  /// unobserved).
  std::vector<obs::Counter*> routed_total_;
  obs::Counter* split_ranges_total_ = nullptr;
  obs::Counter* split_scans_total_ = nullptr;
  obs::Counter* degraded_total_ = nullptr;
};

}  // namespace harmonia::shard
