// ServeOptions — the one validated option surface of the serving stack.
//
// Every layer used to carry its own config struct (scheduler, epoch,
// link, faults, mitigation, obs) and every entry point re-validated an
// ad-hoc subset. ServeOptions keeps the per-layer structs (they are the
// layers' natural vocabulary) but owns the composition: one struct to
// fill, one validate() that rejects inconsistent combinations up front,
// and one CLI entry point (add_flags/from_cli, built on common/cli) for
// harmonia_server_sim and the tests; the benches set fields directly.
//
// ServeOptions holds the construction-time half of the surface; the
// runtime-adjustable knobs additionally travel as a serve::Tunables
// snapshot (serve/tunables.hpp) that shard::ShardedServer exposes via
// tunables()/apply_tunables() — see docs/serving.md#autotuner.
#pragma once

#include "common/cli.hpp"
#include "fault/injector.hpp"
#include "harmonia/pipeline.hpp"
#include "obs/observer.hpp"
#include "persist/durability.hpp"
#include "qos/admission.hpp"
#include "serve/batch_scheduler.hpp"
#include "serve/epoch_updater.hpp"
#include "serve/tunables.hpp"

namespace harmonia::serve {

/// Hot-range splitting + live resharding knobs (sharded backends only,
/// docs/sharding.md#live-resharding). Detection is windowed: every
/// `detect_every` virtual seconds the per-shard routed-query window plus
/// current queue depth is compared against the fleet mean; a shard
/// hotter than `hot_factor` x the mean (with at least
/// `min_window_queries` routed in the window) triggers a split — the hot
/// shard's key range is cut at its median and one half migrates to the
/// colder adjacent neighbor through the staged-image machinery.
struct ReshardConfig {
  bool split_hot = false;
  double detect_every = 1e-3;
  double hot_factor = 2.0;
  /// Migrations allowed per run (0 disables even with split_hot set).
  unsigned max_migrations = 4;
  /// Minimum routed queries in a detection window before a shard may be
  /// called hot — keeps idle-start windows from triggering on noise.
  std::uint64_t min_window_queries = 256;
};

struct ServeOptions {
  /// Replica group size K: every shard's committed image is served by K
  /// interchangeable device replicas (docs/sharding.md#replica-groups).
  /// 1 = unreplicated, bit-identical to the pre-replica behaviour.
  unsigned replicas = 1;
  ReshardConfig reshard;
  /// Per-device scheduler configuration (every shard gets its own lanes
  /// with this capacity, so aggregate admission scales with shards).
  BatchConfig batch;
  /// Epoch trigger thresholds and the epoch mode (quiesce vs the
  /// double-buffered overlap pipeline, docs/serving.md#epoch-pipeline).
  EpochConfig epoch;
  TransferModel link;
  /// Deterministic fault schedule (empty = fault-free, bit-identical to a
  /// build without the fault layer) and the mitigation knobs.
  fault::FaultPlan faults;
  fault::MitigationConfig mitigation;
  /// Optional metrics + request-lifecycle tracing (docs/observability.md).
  /// Both pointers null = zero-overhead, bit-identical to an unobserved
  /// run. The caller owns the registry/recorder.
  obs::Observer obs;
  /// Multi-tenant QoS policy: class weights/deadline stretches for batch
  /// formation, overload eviction order, and per-tenant token-bucket
  /// throttling (docs/serving.md#multi-tenant-qos). Default = inert.
  qos::QosConfig qos;
  /// Durability knobs (docs/persistence_format.md): snapshot directory,
  /// cadence, retention, and whether construction cold-starts from disk.
  /// Default (empty dir) = no persistence, bit-identical to before.
  persist::DurabilityConfig persist;
  /// Wired by the owner of the durability domain (ServingStack, or a
  /// test). Non-owning; null = no durable writes even when persist.dir
  /// is set (the backend only ever writes through this pointer).
  persist::DurabilityDomain* durability = nullptr;
  /// Closed-loop tuning controller (docs/serving.md#autotuner): the
  /// backend ticks it on the virtual clock and installs its decisions at
  /// the knobs' safe points. Non-owning (the tool or test owns the
  /// tune::Autotuner); null = all knobs stay at their configured values.
  TuneController* tuner = nullptr;

  /// Rejects inconsistent combinations with ContractViolation before any
  /// serving state is built: queue capacity below the batch trigger;
  /// empty epoch thresholds, non-positive apply threads, negative
  /// modeled op costs, a delta mode without overlay capacity;
  /// non-positive link bandwidth or negative latency; a mitigation with
  /// no retry budget, negative backoffs, or degraded costs; a replica
  /// group outside [1, 8] or without the sharded path to ride; hot-range
  /// splitting with a non-positive cadence, a hot factor <= 1, fewer
  /// than 2 shards, or persistence (the shard plan is not persisted, so
  /// a run that migrated could not recover); the QoS policy's own
  /// validate(); persistence
  /// recovery without a snapshot directory or zero retention; the
  /// initial tunables snapshot (group size / sort bits bounds); and
  /// fault events that do not fit the topology (every event's shard must
  /// exist, shard-lost needs a sharded or replicated topology,
  /// replica-lost needs a group, process-restart never reaches a
  /// backend).
  void validate(unsigned num_shards = 1) const;

  /// Declares the serving flags (batching, epochs, link, faults) on a
  /// common/cli parser. Pair with from_cli: this is the single CLI entry
  /// point the tools and ext benches share.
  static void add_flags(Cli& cli);
  /// Builds options from flags declared by add_flags. Throws
  /// ContractViolation on a malformed --faults spec or --epoch-mode.
  static ServeOptions from_cli(const Cli& cli);
};

}  // namespace harmonia::serve
