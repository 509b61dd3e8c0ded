// Online serving over a range-sharded index of one or more devices: the
// one Backend (serve/backend.hpp), whose hooks drive per-shard serving
// machinery. A single device is a one-shard fleet. Every shard
// gets its own bounded admission queues and deadline-driven batch
// scheduler, its own epoch engine (serve::EpochUpdater), and its own
// device timeline, so shards batch and dispatch independently — the
// whole point of sharding the serving path. Backend composes the
// engines into fleet epochs; this class supplies the topology hooks.
//
// Three pieces are genuinely cross-shard:
//   Range fan-out  : a range query whose span straddles a partition
//                    boundary is split into per-shard sub-requests
//                    (bounds clamped), admitted all-or-nothing, and its
//                    response is reassembled in shard order when the last
//                    piece completes.
//   Epoch barrier  : in quiesce mode, buffered updates apply as one
//                    cross-shard epoch — the trigger quiesces every
//                    shard, waits for the slowest device (the barrier),
//                    applies the Algorithm-1 updater per shard, resyncs
//                    every touched image, and reopens admission on all
//                    shards at the same instant.
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
// overlay are exhausted falls back to a full shadow build — so shard A
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
// replica catches up by replaying the group's update-log tail (epochs
// after the one it last applied); only losing the LAST member falls back
// to the K = 1 fence + degraded path. K = 1 is bit-identical to the
// pre-replica behaviour.
//
// Hot-range splitting (config.reshard.split_hot): per-shard routed-query
// windows are sampled on a virtual-time cadence; a shard running hotter
// than hot_factor x the fleet mean triggers a live migration — the hot
// range is cut at its median key, both post-split images build through
// the same double-buffered staging as overlap epochs while the old plan
// keeps serving, and the epoch-versioned ShardPlan flips at a swap
// boundary with in-flight fan-outs parked on the fence (plan_version
// bumps once per committed migration).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "serve/backend.hpp"
#include "shard/replica_group.hpp"
#include "shard/sharded_index.hpp"

namespace harmonia::shard {

class ShardedServer : public serve::Backend {
 public:
  /// Every shard of `index` must hold keys (plan the partition from the
  /// served keys, e.g. ShardPlan::sample_balanced) so each shard has a
  /// live device and scheduler for the whole run. The sharded stack
  /// shares serve::ServeOptions (batch/epoch configs are per shard) and
  /// the unified serve::ServerReport, whose shard_* vectors it fills.
  ShardedServer(ShardedIndex& index, const serve::ServeOptions& config);
  /// One device: serves the caller's index as a one-shard fleet (the
  /// server keeps the wrapping ShardedIndex; `index` must outlive it).
  ShardedServer(HarmoniaIndex& index, const serve::ServeOptions& config);

 protected:
  void begin_run(serve::ServerReport& report) override;
  double next_batch_time(double now) const override;
  void dispatch_ready_batch(double now, serve::RequestSource& source,
                            serve::ServerReport& report) override;
  void submit(const serve::Request& r, serve::RequestSource& source,
              serve::ServerReport& report) override;
  unsigned shard_of(Key key) const override { return index_.plan().shard_of(key); }
  void drain_queries(double at, serve::RequestSource& source,
                     serve::ServerReport& report) override;
  std::span<double> device_timelines() override { return replica_free_; }
  double swap_time(unsigned s, double ready) const override;
  /// A fenced (lost) shard has no live image to patch: it compacts.
  bool may_patch(unsigned s) const override { return !fenced_[s]; }
  void on_swapped(unsigned s, unsigned epoch, std::uint64_t ops) override;
  bool staging_busy() const override { return migration_.has_value(); }
  void after_staged_epoch(double now, serve::RequestSource& source,
                          serve::ServerReport& report) override;
  double next_swap_time() const override;
  void epoch_commit(double now, serve::RequestSource& source,
                    serve::ServerReport& report) override;
  double next_fault_time() const override;
  void handle_fault(double now, serve::RequestSource& source,
                    serve::ServerReport& report) override;
  double next_restore_time() const override;
  void handle_restore(double now, serve::ServerReport& report) override;
  void final_drain(double now, serve::RequestSource& source,
                   serve::ServerReport& report) override;
  void finish_run(serve::ServerReport& report) override;

 private:
  /// Sub-request ids live above this bit so they can never collide with
  /// stream ids (which count up from 0).
  static constexpr std::uint64_t kSubIdBase = 1ULL << 63;

  ShardedServer(std::unique_ptr<ShardedIndex> owned,
                const serve::ServeOptions& config);

  struct PendingMerge {
    std::size_t parts_expected = 0;
    /// (shard, part) pairs; merged in shard order on completion.
    std::vector<std::pair<unsigned, serve::Response>> parts;
    serve::Request original;
  };

  /// One side (donor or receiver) of a live migration: its post-split
  /// image staged on a shadow tree.
  struct MigrationSide {
    double ready = 0.0;  // staged image uploaded + audited
    double upload_seconds = 0.0;
    HarmoniaIndex::StagedUpdate update;
  };

  /// One live migration between a hot donor and its adjacent receiver:
  /// both post-split images stage on shadow trees while the old plan
  /// keeps serving, then the plan flips at a swap boundary
  /// (docs/sharding.md#live-resharding). Mutually exclusive with a
  /// staged epoch — updates buffer while a migration is in flight and
  /// trigger right after the flip. It logs nothing and books no client
  /// stats, so it stages directly instead of through the epoch engines.
  struct InflightMigration {
    unsigned donor = 0;
    unsigned receiver = 0;
    double trigger = 0.0;
    double build_seconds = 0.0;
    double build_done = 0.0;
    std::uint64_t moved_keys = 0;
    /// The post-flip partition (ShardPlan has no default ctor, so the
    /// bounds travel raw and from_bounds runs at commit).
    std::vector<Key> new_lo;
    MigrationSide donor_side;
    MigrationSide receiver_side;
  };

  void admit_query(const serve::Request& r, double now,
                   serve::RequestSource& source, serve::ServerReport& report);
  void drop(const serve::Request& r, unsigned shard, serve::RequestSource& source,
            serve::ServerReport& report, const char* note = "rejected");
  /// Answers a request evicted from shard `s` by QoS overload policy: it
  /// was admitted, so it sheds (a dropped response). An evicted fan-out
  /// piece lowers the shard's version fence and poisons its merge.
  void handle_evicted(unsigned s, serve::Request victim, double now,
                      serve::RequestSource& source, serve::ServerReport& report);
  /// A scan's cap, clamped like the scheduler clamps it (so fan-out span,
  /// merge truncation, and the device all agree on one n).
  std::uint32_t clamped_scan_n(const serve::Request& r) const;
  /// True when the request's span/coverage crosses a shard boundary (the
  /// parking predicate for mixed-version windows).
  bool straddles(const serve::Request& r) const;
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
  void restore_shard(double now, serve::ServerReport& report);
  /// Brings the earliest due lost replica back: it catches up by
  /// replaying the group's update-log tail (epochs after the one it last
  /// applied), or by a full re-image when the plan changed since it was
  /// lost — a migration's boundary move never reaches the update log.
  void rejoin_replica(double now, serve::ServerReport& report);

  /// Hot-range detection on the virtual-time cadence; arms migration_
  /// when a shard runs hotter than hot_factor x the fleet-mean window.
  void maybe_start_migration(double now);
  void start_migration(unsigned donor, unsigned receiver, double now);
  /// Instant the armed migration can flip the plan: both staged sides
  /// ready AND both shards fully drained (queues empty, fences clear,
  /// groups idle); kNever until then.
  double migration_swap_time() const;
  /// True once both staged sides are uploadable at `now`: new arrivals
  /// touching the donor/receiver span park so the drain converges.
  bool migration_swap_pending(double now) const;
  /// True when the request's current-plan span intersects the migrating
  /// pair (the parking predicate while a flip is pending).
  bool touches_migration(const serve::Request& r) const;
  void commit_migration(double now, serve::RequestSource& source,
                        serve::ServerReport& report);
  /// Serves one request of a fenced shard's range from the host tree on
  /// the shard's CPU timeline; sheds (dropped response) once the CPU
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
  /// (kInf = slot healthy or fenced-path, which uses restore_at_).
  std::vector<double> rejoin_at_;
  /// Plan version at the instant each slot was lost: a rejoin whose
  /// shard plan moved since must full-re-image instead of log catch-up.
  std::vector<unsigned> lost_plan_;
  /// The slot the whole-shard fence took down (restore rejoins it).
  std::vector<unsigned> fence_replica_;
  /// Per-shard (epoch, client-op count) ledger, appended at each commit
  /// when K > 1: the in-memory stand-in for the update-log tail when no
  /// durability domain is wired (same per-epoch granularity as the WAL).
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> epoch_ops_;
  /// Per-shard fencing state: fenced shards serve degraded from the CPU
  /// oracle until restore_at_; cpu_free_ is the degraded-path timeline.
  std::vector<char> fenced_;
  std::vector<double> fence_start_;
  std::vector<double> restore_at_;
  std::vector<double> cpu_free_;
  /// Per-shard epoch version: equals epochs() outside a swap window; the
  /// shards that already took their staggered swap sit at epochs() + 1.
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
  std::optional<InflightMigration> migration_;
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
  obs::Counter* split_ranges_total_ = nullptr;
  obs::Counter* split_scans_total_ = nullptr;
  obs::Counter* degraded_total_ = nullptr;
};

}  // namespace harmonia::shard
