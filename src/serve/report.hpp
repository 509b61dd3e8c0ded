// serve::ServerReport — the one result of a serving run
// (shard::ShardedServer::run): every response, the admission ledger,
// epoch and fault attribution, and the per-shard extras.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "fault/injector.hpp"
#include "qos/priority.hpp"
#include "serve/request.hpp"

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
  /// each vector sums to its stream-level counter. Counting at the
  /// shard queues instead would book every fan-out sub-request
  /// (double-counting straddling ranges) and never see all-or-nothing
  /// probe drops (omitting them).
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

}  // namespace harmonia::serve
