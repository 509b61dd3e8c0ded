// End-to-end query pipeline with host<->device transfers.
//
// The paper reports kernel throughput; a deployed index also pays PCIe:
// queries arrive on the host, results return to it. HB+Tree's paper (and
// §6 here) point at CPU-GPU pipelining / double buffering as the remedy —
// chunk the batch and overlap upload(i+1) / kernel(i) / download(i-1).
// This module models both schedules on the simulator's clock:
//   serial     : sum of every chunk's upload + sort + kernel + download
//   overlapped : pipeline fill + drain around the bottleneck stage
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "harmonia/index.hpp"

namespace harmonia {

/// Host-device link model (PCIe 3.0 x16 ~ 12 GB/s effective by default).
struct TransferModel {
  double gigabytes_per_second = 12.0;
  /// Fixed per-transfer cost (driver + DMA setup).
  double latency_seconds = 10e-6;

  double seconds(std::uint64_t bytes) const {
    return latency_seconds +
           static_cast<double>(bytes) / (gigabytes_per_second * 1e9);
  }
};

struct PipelineOptions {
  std::uint64_t chunk_size = 1 << 16;
  /// false = strictly serial chunks (no double buffering).
  bool overlap = true;
  QueryOptions query_options;
};

/// Stage timings for one chunk pushed through upload -> (sort + kernel) ->
/// download. This is the reusable unit of pipeline accounting:
/// `pipelined_search` sums these per chunk, and the serving scheduler
/// (src/serve/) charges each dispatched batch with the same math.
struct ChunkTiming {
  double upload_seconds = 0.0;
  double sort_seconds = 0.0;
  double kernel_seconds = 0.0;
  double download_seconds = 0.0;

  double compute_seconds() const { return sort_seconds + kernel_seconds; }
  double serial_seconds() const {
    return upload_seconds + compute_seconds() + download_seconds;
  }
};

/// Runs one chunk through the index, writing values (arrival order) into
/// `out` (`out.size() == chunk.size()`). Results are identical to
/// `index.search(chunk, qopts)`; only the per-stage accounting is added.
ChunkTiming dispatch_chunk(HarmoniaIndex& index, std::span<const Key> chunk,
                           const TransferModel& link, const QueryOptions& qopts,
                           std::span<Value> out);

/// Virtual seconds to re-upload a tree's whole device image over `link`:
/// the post-update-epoch resync cost (key region + prefix-sum array +
/// value region, one transfer each). In the double-buffered epoch
/// pipeline this same charge is the *background* upload of the staged
/// image N+1 (the host tree) while image N keeps serving
/// (docs/serving.md); a re-image of the served state prices
/// HarmoniaIndex::committed().
double image_resync_seconds(const TreeView& regions, const TransferModel& link);
inline double image_resync_seconds(const HarmoniaTree& tree, const TransferModel& link) {
  return image_resync_seconds(tree.view(), link);
}

struct PipelineResult {
  std::vector<Value> values;  // arrival order, all chunks
  std::uint64_t chunks = 0;

  // Per-stage totals (summed over chunks).
  double upload_seconds = 0.0;
  double sort_seconds = 0.0;
  double kernel_seconds = 0.0;
  double download_seconds = 0.0;

  /// End-to-end time under the selected schedule.
  double total_seconds = 0.0;
  double throughput = 0.0;

  /// The stage that bounds the overlapped schedule.
  const char* bottleneck = "";
};

/// Runs `batch` through the index in chunks under the transfer model.
/// Results are identical to a single index.search(batch); only the time
/// accounting differs.
PipelineResult pipelined_search(HarmoniaIndex& index, std::span<const Key> batch,
                                const TransferModel& link,
                                const PipelineOptions& options = {});

}  // namespace harmonia
