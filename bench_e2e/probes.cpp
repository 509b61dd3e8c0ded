#include "probes.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <tuple>

#include "common/timer.hpp"
#include "fault/checksum.hpp"
#include "persist/snapshot_store.hpp"
#include "persist/update_log.hpp"
#include "serve/batch_scheduler.hpp"
#include "sort/radix_sort.hpp"

namespace e2e {

using namespace harmonia;
using serve::Request;
using serve::RequestKind;
using serve::Response;

namespace {

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Point batches as the scheduler formed them: responses grouped by
/// (shard, dispatch instant), members in response order.
std::map<std::pair<unsigned, double>, std::vector<Key>> point_batches(
    const Topology& topo, std::span<const Request> stream, const serve::ServerReport& report) {
  std::map<std::pair<unsigned, double>, std::vector<Key>> batches;
  for (const Response& resp : report.responses) {
    if (resp.kind != RequestKind::kPoint || resp.dropped) continue;
    const Key key = stream[resp.id].key;
    batches[{topo.shard_of(key), resp.dispatch}].push_back(key);
  }
  return batches;
}

void add_stats(UpdateStats& into, const UpdateStats& s) {
  into.fine_path_ops += s.fine_path_ops;
  into.coarse_path_ops += s.coarse_path_ops;
  into.coarse_retries += s.coarse_retries;
  into.aux_nodes += s.aux_nodes;
  into.moved_slots += s.moved_slots;
}

}  // namespace

void SearchTally::add(std::span<const Key> batch, const HarmoniaIndex::QueryResult& r,
                      unsigned tree_height, double wall_seconds) {
  queries_ += batch.size();
  wall_ += wall_seconds;
  sort_seconds_ += r.sort_seconds;
  kernel_seconds_ += r.kernel_seconds;
  metrics_.merge(r.search.metrics);
  warps_ += r.search.warps;
  chunk_steps_ += r.search.chunk_steps;
  warp_levels_ += r.search.warps * tree_height;
  sorted_bits_ = r.sorted_bits;
  group_size_ = r.group_size_used;
}

void SearchTally::time_host_sort(std::span<const Key> batch, unsigned sorted_bits) {
  if (sorted_bits == 0) return;
  std::vector<Key> keys(batch.begin(), batch.end());
  std::vector<std::uint64_t> perm(keys.size());
  std::iota(perm.begin(), perm.end(), std::uint64_t{0});
  WallTimer t;
  sort::radix_sort_pairs_bits(keys, perm, 64 - sorted_bits, sorted_bits);
  sort_wall_ += t.elapsed_seconds();
  sorted_keys_ += keys.size();
}

void SearchTally::put(RepValues& out) const {
  const auto q = static_cast<double>(queries_);
  const auto global = static_cast<double>(metrics_.global_transactions());
  out.put("search.wall_ns_per_query", per(wall_ * 1e9, q), queries_);
  out.put("search.kernel_ns_per_query", per(kernel_seconds_ * 1e9, q), queries_);
  out.put("search.global_txn_per_query", per(global, q), queries_);
  out.put("search.dram_txn_per_query", per(static_cast<double>(metrics_.dram_transactions), q),
          queries_);
  out.put("search.l2_hit_frac", per(static_cast<double>(metrics_.l2_hits), global));
  out.put("search.memory_divergence", metrics_.memory_divergence());
  out.put("search.warp_coherence", metrics_.warp_coherence());
  out.put("search.steps_per_warp_level",
          per(static_cast<double>(chunk_steps_), static_cast<double>(warp_levels_)), warps_);
  out.put("ntg.group_size", group_size_);
  out.put("psa.sort_bits", sorted_bits_);
  out.put("psa.sort_passes", sort::radix_passes(sorted_bits_));
  out.put("psa.sort_share", per(sort_seconds_, sort_seconds_ + kernel_seconds_));
  out.put("sort.wall_ns_per_key", per(sort_wall_ * 1e9, static_cast<double>(sorted_keys_)),
          sorted_keys_);
}

void probe_search(Topology& topo, std::span<const Request> stream,
                  const serve::ServerReport& report, RepValues& out, Spans& spans) {
  const auto scope = spans.open("probe.search");
  // The serving dispatch's options: PSA on, NTG auto-profiling off.
  const QueryOptions qopts = serve::BatchConfig{}.pipeline.query_options;
  const auto batches = point_batches(topo, stream, report);
  SearchTally tally;
  std::vector<Key> all;
  for (const auto& [where, keys] : batches) {
    HarmoniaIndex& index = topo.shard_index(where.first);
    WallTimer t;
    const auto r = index.search(keys, qopts);
    tally.add(keys, r, index.tree().height(), t.elapsed_seconds());
    tally.time_host_sort(keys, r.sorted_bits);
    all.insert(all.end(), keys.begin(), keys.end());
  }
  tally.put(out);

  shard::ShardedIndex* sharded = topo.sharded();
  if (sharded == nullptr || all.empty()) return;
  const auto shard_scope = spans.open("probe.shard");
  const std::size_t chunk = serve::BatchConfig{}.max_batch;
  WallTimer t;
  for (std::size_t i = 0; i < all.size(); i += chunk) {
    const std::size_t n = std::min(chunk, all.size() - i);
    sharded->search(std::span<const Key>(all).subspan(i, n));
  }
  out.put("shard.search_wall_ns_per_query",
          per(t.elapsed_seconds() * 1e9, static_cast<double>(all.size())), all.size());
}

void probe_range(Topology& topo, std::span<const Request> stream,
                 const serve::ServerReport& report, unsigned max_results, RepValues& out,
                 Spans& spans) {
  const auto scope = spans.open("probe.range");
  struct Group {
    std::vector<Key> los, his;
    std::vector<std::uint32_t> ns;
  };
  std::map<std::tuple<RequestKind, unsigned, double>, Group> groups;
  for (const Response& resp : report.responses) {
    if ((resp.kind != RequestKind::kRange && resp.kind != RequestKind::kScan) || resp.dropped)
      continue;
    const Request& r = stream[resp.id];
    Group& g = groups[{resp.kind, topo.shard_of(r.key), resp.dispatch}];
    g.los.push_back(r.key);
    g.his.push_back(r.hi);
    g.ns.push_back(std::min(std::max<std::uint32_t>(r.scan_n, 1), max_results));
  }
  if (groups.empty()) return;
  std::uint64_t requests = 0, results = 0, txn = 0;
  double wall = 0.0;
  for (const auto& [where, g] : groups) {
    HarmoniaIndex& index = topo.shard_index(std::get<1>(where));
    WallTimer t;
    const auto r = std::get<0>(where) == RequestKind::kRange
                       ? index.range_device(g.los, g.his, max_results)
                       : index.scan_device(g.los, g.ns);
    wall += t.elapsed_seconds();
    requests += g.los.size();
    results += r.total_results;
    txn += r.metrics.global_transactions();
  }
  out.put("range.wall_ns_per_request", per(wall * 1e9, static_cast<double>(requests)), requests);
  out.put("range.txn_per_result", per(static_cast<double>(txn), static_cast<double>(results)),
          results);
}

void probe_updates(Topology& fresh, std::span<const Request> stream,
                   const serve::ServerReport& report, const serve::EpochConfig& epoch,
                   const std::filesystem::path& persist_dir, RepValues& out, Spans& spans) {
  const auto scope = spans.open("probe.update");
  std::vector<std::vector<std::uint64_t>> ids_of;
  for (const Response& resp : report.responses) {
    if (resp.kind != RequestKind::kUpdate) continue;
    if (ids_of.size() <= resp.epoch) ids_of.resize(resp.epoch + 1);
    ids_of[resp.epoch].push_back(resp.id);
  }
  if (ids_of.empty()) return;

  UpdateStats stats;
  std::uint64_t stage_ops = 0, patch_ops = 0, patch_epochs = 0, patch_bytes = 0;
  std::uint64_t compactions = 0, log_batches = 0, log_ops = 0;
  double stage_wall = 0.0, patch_wall = 0.0, sync_wall = 0.0, log_wall = 0.0;
  const bool persist = !persist_dir.empty();
  if (persist) std::filesystem::create_directories(persist_dir);
  persist::UpdateLog log(persist_dir / "update.log");

  const auto stage = [&](HarmoniaIndex& index, std::span<const queries::UpdateOp> ops) {
    WallTimer t;
    HarmoniaIndex::StagedUpdate staged = index.stage_update(ops, epoch.apply_threads);
    stage_wall += t.elapsed_seconds();
    stage_ops += ops.size();
    add_stats(stats, staged.stats);
    t.reset();
    index.commit_staged(std::move(staged));
    sync_wall += t.elapsed_seconds();
    ++compactions;
  };

  // Leftover updates at stream end close out with a quiesce-style epoch
  // in every mode, and only quiesce epochs stall the device: a stall in
  // a staged mode marks the last epoch as such a full rebuild.
  const bool last_rebuilds = report.epoch_stall_seconds > 0.0;
  for (std::size_t e = 1; e < ids_of.size(); ++e) {
    std::sort(ids_of[e].begin(), ids_of[e].end());
    const bool rebuild = epoch.mode != serve::EpochMode::kIncremental ||
                         (last_rebuilds && e + 1 == ids_of.size());
    std::vector<std::vector<queries::UpdateOp>> per_shard(fresh.shards());
    std::vector<queries::UpdateOp> all;
    for (const std::uint64_t id : ids_of[e]) {
      const Request& r = stream[id];
      const queries::UpdateOp op{r.op, r.key, r.value};
      per_shard[fresh.shard_of(r.key)].push_back(op);
      all.push_back(op);
    }
    for (unsigned s = 0; s < fresh.shards(); ++s) {
      const std::vector<queries::UpdateOp>& ops = per_shard[s];
      if (ops.empty()) continue;
      HarmoniaIndex& index = fresh.shard_index(s);
      if (rebuild) {
        // A full rebuild folds any live overlay ahead of the batch.
        std::vector<queries::UpdateOp> fold = index.overlay_as_ops();
        fold.insert(fold.end(), ops.begin(), ops.end());
        stage(index, fold);
        continue;
      }
      // The incremental path: patch in place; on exhaustion fold the
      // overlay ahead of the unabsorbed tail into one staged build.
      WallTimer t;
      const HarmoniaIndex::PatchResult pr = index.patch_update(ops);
      patch_wall += t.elapsed_seconds();
      patch_ops += pr.absorbed;
      if (!pr.exhausted) {
        ++patch_epochs;
        patch_bytes += pr.patch_bytes;
        index.commit_patch();
        continue;
      }
      std::vector<queries::UpdateOp> fold = index.overlay_as_ops();
      fold.insert(fold.end(), ops.begin() + static_cast<std::ptrdiff_t>(pr.absorbed), ops.end());
      index.discard_patch();
      stage(index, fold);
    }
    if (persist) {
      WallTimer t;
      log.append(e, all);
      log_wall += t.elapsed_seconds();
      ++log_batches;
      log_ops += all.size();
    }
  }

  out.put("update.wall_us_per_op", per(stage_wall * 1e6, static_cast<double>(stage_ops)),
          stage_ops);
  out.put("update.patch_wall_us_per_op", per(patch_wall * 1e6, static_cast<double>(patch_ops)),
          patch_ops);
  out.put("update.fine_path_frac",
          per(static_cast<double>(stats.fine_path_ops),
              static_cast<double>(stats.fine_path_ops + stats.coarse_path_ops)));
  out.put("update.coarse_retries", static_cast<double>(stats.coarse_retries));
  out.put("update.moved_slots_per_op",
          per(static_cast<double>(stats.moved_slots), static_cast<double>(stage_ops)));
  out.put("update.aux_nodes", static_cast<double>(stats.aux_nodes));
  // Calibration of the two modeled per-op charges against the measured
  // host cost of the calls they stand in for (> 1: the model charges more
  // than this host spends).
  out.put("update.modeled_over_measured",
          per(epoch.seconds_per_op, per(stage_wall, static_cast<double>(stage_ops))));
  out.put("update.patch_modeled_over_measured",
          per(epoch.seconds_per_patch_op, per(patch_wall, static_cast<double>(patch_ops))));
  out.put("image.patch_bytes_per_epoch",
          per(static_cast<double>(patch_bytes), static_cast<double>(patch_epochs)), patch_epochs);
  out.put("image.sync_wall_ms", per(sync_wall * 1e3, static_cast<double>(compactions)),
          compactions);
  if (!persist) return;

  const auto persist_scope = spans.open("probe.persist");
  HarmoniaIndex& index = fresh.shard_index(0);
  const std::uint64_t log_bytes = std::filesystem::file_size(log.path());
  persist::SnapshotStore store(persist_dir);
  WallTimer t;
  store.write(ids_of.size() - 1, index.tree(), index.snapshot_extras());
  const double snapshot_wall = t.elapsed_seconds();
  const std::string image = persist::SnapshotStore::encode(index.tree(), index.snapshot_extras());
  t.reset();
  fault::crc32(image.data(), image.size());
  const double crc_wall = t.elapsed_seconds();
  const auto image_mb = static_cast<double>(image.size()) / 1e6;

  out.put("persist.log_append_us_per_batch",
          per(log_wall * 1e6, static_cast<double>(log_batches)), log_batches);
  out.put("persist.log_bytes_per_op",
          per(static_cast<double>(log_bytes), static_cast<double>(log_ops)), log_ops);
  out.put("persist.snapshot_write_ms", snapshot_wall * 1e3);
  out.put("persist.snapshot_mb", image_mb);
  // Bytes the durability layer wrote per byte of op payload, with every
  // snapshot the run wrote taken at this (final-state) image size.
  out.put("persist.write_amp",
          per(static_cast<double>(log_bytes) +
                  static_cast<double>(report.snapshots_written) * static_cast<double>(image.size()),
              static_cast<double>(log_ops * persist::UpdateLog::kOpBytes)));
  out.put("crc.mb_per_s", per(image_mb, crc_wall));
}

}  // namespace e2e
