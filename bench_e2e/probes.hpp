// Host-wall probes for the traced run: after a serving run() returns,
// replay the run's own inputs through each layer's public function and
// time it there.
//   - query batches are rebuilt from the responses, grouped by dispatch
//     instant and shard (what the batch scheduler formed);
//   - epoch batches are rebuilt from the epochs the update responses
//     carry, and replayed in order on a freshly built topology.
// Probes read the post-run index: for a mutating workload the search and
// range replays see the final state, not the per-batch state.
#pragma once

#include <filesystem>
#include <span>
#include <vector>

#include "harmonia/index.hpp"
#include "metrics.hpp"
#include "serve/backend.hpp"
#include "serve/epoch_updater.hpp"
#include "spans.hpp"
#include "topology.hpp"

namespace e2e {

/// Search-layer tallies over a set of HarmoniaIndex::search calls; the
/// batch_lookup workload feeds its own timed calls, the serving probes
/// their replays.
class SearchTally {
 public:
  void add(std::span<const Key> batch, const harmonia::HarmoniaIndex::QueryResult& r,
           unsigned tree_height, double wall_seconds);
  /// Times the host radix sort PSA runs on `batch` (sort.wall_ns_per_key).
  void time_host_sort(std::span<const Key> batch, unsigned sorted_bits);
  /// search.*, psa.*, sort.*, ntg.group_size.
  void put(RepValues& out) const;
  std::uint64_t queries() const { return queries_; }

 private:
  std::uint64_t queries_ = 0;
  double wall_ = 0.0;
  double sort_seconds_ = 0.0;
  double kernel_seconds_ = 0.0;
  std::uint64_t sorted_keys_ = 0;
  double sort_wall_ = 0.0;
  harmonia::gpusim::KernelMetrics metrics_;
  std::uint64_t warps_ = 0;
  std::uint64_t chunk_steps_ = 0;
  std::uint64_t warp_levels_ = 0;
  unsigned sorted_bits_ = 0;
  unsigned group_size_ = 0;
};

/// Replays the run's point batches through HarmoniaIndex::search (the
/// serving dispatch's query options) and, on a sharded topology, the
/// whole point stream through ShardedIndex::search.
void probe_search(Topology& topo, std::span<const harmonia::serve::Request> stream,
                  const harmonia::serve::ServerReport& report, RepValues& out, Spans& spans);

/// Replays the run's range and scan batches through the device range
/// kernel (range_device / scan_device).
void probe_range(Topology& topo, std::span<const harmonia::serve::Request> stream,
                 const harmonia::serve::ServerReport& report, unsigned max_results,
                 RepValues& out, Spans& spans);

/// Replays the run's epochs on `fresh` (a topology in the run's starting
/// state), per shard, down the path the server took: the in-place patch
/// (incremental mode, falling back to a staged build on exhaustion) or
/// the Algorithm-1 staged build (overlap mode, and the quiesce-style
/// epoch that closes out leftover updates). With `persist_dir` set it
/// also appends each epoch to an update log and writes one snapshot
/// there. Records the modeled-over-measured calibration of EpochConfig's
/// two per-op costs.
void probe_updates(Topology& fresh, std::span<const harmonia::serve::Request> stream,
                   const harmonia::serve::ServerReport& report,
                   const harmonia::serve::EpochConfig& epoch,
                   const std::filesystem::path& persist_dir, RepValues& out, Spans& spans);

}  // namespace e2e
