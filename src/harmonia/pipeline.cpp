#include "harmonia/pipeline.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace harmonia {

ChunkTiming dispatch_chunk(HarmoniaIndex& index, std::span<const Key> chunk,
                           const TransferModel& link, const QueryOptions& qopts,
                           std::span<Value> out) {
  HARMONIA_CHECK(!chunk.empty());
  HARMONIA_CHECK(out.size() == chunk.size());
  const auto r = index.search(chunk, qopts);
  std::copy(r.values.begin(), r.values.end(), out.begin());
  ChunkTiming t;
  t.upload_seconds = link.seconds(chunk.size() * sizeof(Key));
  // Sorting happens on-device after upload: it belongs to the compute
  // stage of the pipeline.
  t.sort_seconds = r.sort_seconds;
  t.kernel_seconds = r.kernel_seconds;
  t.download_seconds = link.seconds(chunk.size() * sizeof(Value));
  return t;
}

double image_resync_seconds(const TreeView& regions, const TransferModel& link) {
  return link.seconds(regions.keys.size_bytes()) +
         link.seconds(regions.prefix_sum.size_bytes()) +
         link.seconds(regions.values.size_bytes());
}

PipelineResult pipelined_search(HarmoniaIndex& index, std::span<const Key> batch,
                                const TransferModel& link,
                                const PipelineOptions& options) {
  HARMONIA_CHECK(!batch.empty());
  HARMONIA_CHECK(options.chunk_size > 0);

  PipelineResult result;
  result.values.resize(batch.size());

  // Per-chunk stage times; the schedule is computed afterwards.
  std::vector<double> up, proc, down;

  for (std::uint64_t base = 0; base < batch.size(); base += options.chunk_size) {
    const std::uint64_t n = std::min<std::uint64_t>(options.chunk_size,
                                                    batch.size() - base);
    const auto chunk = batch.subspan(base, n);
    const auto t = dispatch_chunk(
        index, chunk, link, options.query_options,
        std::span<Value>(result.values).subspan(base, n));

    up.push_back(t.upload_seconds);
    proc.push_back(t.compute_seconds());
    down.push_back(t.download_seconds);
    result.upload_seconds += t.upload_seconds;
    result.sort_seconds += t.sort_seconds;
    result.kernel_seconds += t.kernel_seconds;
    result.download_seconds += t.download_seconds;
    ++result.chunks;
  }

  if (!options.overlap || result.chunks == 1) {
    result.total_seconds =
        result.upload_seconds + result.sort_seconds + result.kernel_seconds +
        result.download_seconds;
    result.bottleneck = "serial";
  } else {
    // Three-stage pipeline with double buffering: each stage processes
    // chunk i only after the previous stage finished it and after its own
    // previous chunk. Classic dependency recurrence:
    std::vector<double> up_done(result.chunks), proc_done(result.chunks),
        down_done(result.chunks);
    for (std::size_t i = 0; i < result.chunks; ++i) {
      const double up_ready = i == 0 ? 0.0 : up_done[i - 1];
      up_done[i] = up_ready + up[i];
      const double proc_ready = std::max(up_done[i], i == 0 ? 0.0 : proc_done[i - 1]);
      proc_done[i] = proc_ready + proc[i];
      const double down_ready = std::max(proc_done[i], i == 0 ? 0.0 : down_done[i - 1]);
      down_done[i] = down_ready + down[i];
    }
    result.total_seconds = down_done.back();

    const double stages[3] = {result.upload_seconds,
                              result.sort_seconds + result.kernel_seconds,
                              result.download_seconds};
    const char* names[3] = {"upload", "compute", "download"};
    result.bottleneck =
        names[static_cast<std::size_t>(std::max_element(stages, stages + 3) - stages)];
  }

  result.throughput = static_cast<double>(batch.size()) / result.total_seconds;
  return result;
}

}  // namespace harmonia
