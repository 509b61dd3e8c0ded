// Range-sharded multi-device layer over the Harmonia core.
//
// One ShardedIndex owns, per shard of its ShardPlan, an independent
// simulated device plus a HarmoniaIndex built from the entries falling
// into that shard's key range. Shards never reference each other, so:
//   search : scatter the batch by partition boundary, push each shard's
//            sub-batch through that shard's own PCIe pipeline
//            (pipelined_search -> dispatch_chunk, i.e. the full
//            PSA + NTG device path), gather values back into arrival
//            order. Devices run concurrently: wall time is the slowest
//            shard's pipeline, which is what the scaling bench measures.
//   range  : a query [lo, hi] fans out to every shard its span touches
//            (bounds clamped per shard); per-shard results merge back in
//            shard order — already globally ascending because shards are
//            ordered ranges — truncated at max_results.
//   update : ops scatter by target shard; each shard runs the Algorithm-1
//            CPU updater and resyncs its own image. Host apply work sums
//            across shards (one CPU), image resyncs overlap (one PCIe
//            link per device), mirroring the search-side timing model.
//
// A shard whose range holds no keys stays deviceless (index() == nullptr)
// and answers trivially: misses for points, nothing for ranges. An insert
// routed at an empty shard instantiates its device lazily.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "gpusim/device.hpp"
#include "harmonia/index.hpp"
#include "harmonia/pipeline.hpp"
#include "obs/observer.hpp"
#include "shard/plan.hpp"

namespace harmonia::shard {

struct ShardedOptions {
  /// Per-shard tree construction (fanout, fill factor, const budget).
  IndexOptions index;
  /// Per-shard device preset; every shard gets an identical device.
  gpusim::DeviceSpec device = gpusim::titan_v();
  /// Host<->device link; each shard owns one (transfers overlap).
  TransferModel link;
  /// Chunking + query options for the per-shard search pipelines.
  PipelineOptions pipeline;
  /// Global-memory cap per simulated device (backing store is lazily
  /// allocated, but small caps keep accidental huge sweeps honest).
  std::uint64_t device_global_bytes = 2ULL << 30;
};

class ShardedIndex {
 public:
  /// Builds one tree + device image per shard from sorted, distinct
  /// entries (the same bulk-load contract as HarmoniaIndex::build).
  ShardedIndex(std::span<const btree::Entry> entries, ShardPlan plan,
               const ShardedOptions& options = {});

  /// A one-shard fleet over the caller's index, covering the whole key
  /// domain. Non-owning: `index` and its device must outlive this object.
  explicit ShardedIndex(HarmoniaIndex& index);

  const ShardPlan& plan() const { return plan_; }
  unsigned num_shards() const { return plan_.num_shards(); }
  const ShardedOptions& options() const { return options_; }

  /// Replaces shard `s` with a fresh device imaged from `tree` (recovery:
  /// a snapshot-loaded host tree becomes the shard's live index). Every
  /// key of `tree` must fall inside the shard's planned range.
  /// `fill_factor` is the snapshot's gapped-leaf geometry, so later
  /// compactions re-gap like the generation that wrote it.
  void install_shard(unsigned s, HarmoniaTree tree, double fill_factor);

  /// Atomically adopts a new partition plan (live resharding: the caller
  /// has already re-imaged the shards whose ranges moved through the
  /// staged-update machinery). Same shard count; every shard's keys must
  /// all fall inside its NEW range — the same containment tripwire as
  /// install_shard, so a half-migrated flip cannot slip through.
  void set_plan(ShardPlan plan);

  /// The shard's index, or nullptr while its range holds no keys.
  HarmoniaIndex* shard(unsigned s);
  const HarmoniaIndex* shard(unsigned s) const;
  std::uint64_t shard_key_count(unsigned s) const;
  std::uint64_t num_keys() const;

  struct SearchResult {
    /// Values in arrival order; kNotFound for absent keys.
    std::vector<Value> values;
    /// Queries routed to each shard.
    std::vector<std::uint64_t> per_shard;
    /// Wall time: slowest shard pipeline (devices run concurrently).
    double total_seconds = 0.0;
    /// Summed device-occupied time across shards (work, not wall).
    double device_seconds = 0.0;
    unsigned bottleneck_shard = 0;

    double throughput() const {
      return total_seconds > 0.0
                 ? static_cast<double>(values.size()) / total_seconds
                 : 0.0;
    }
  };

  /// Scatter -> per-shard PCIe pipeline -> gather. Results are identical
  /// to a single-device index over the same entries.
  SearchResult search(std::span<const Key> batch);

  struct RangeResult {
    /// values[i]: ascending values of keys in [los[i], his[i]], truncated
    /// at max_results — byte-identical to the single-device range kernel.
    std::vector<std::vector<Value>> values;
    /// Queries whose span crossed at least one partition boundary.
    std::uint64_t straddling = 0;
    std::uint64_t total_results = 0;
    /// Slowest shard's (upload + kernel + download) service time.
    double total_seconds = 0.0;
  };

  RangeResult range(std::span<const Key> los, std::span<const Key> his,
                    unsigned max_results = 64);

  /// Batched online scans ([lo, n): the first ns[i] values with key >=
  /// los[i]). A scan fans out to every shard its coverage reaches (see
  /// scan_end_shard); per-shard pieces merge in shard order and truncate
  /// at ns[i] — byte-identical to a single-device scan_device.
  RangeResult scan(std::span<const Key> los, std::span<const std::uint32_t> ns);

  /// The last shard a scan of `n` results starting at `lo` can touch:
  /// extends from shard_of(lo) through the following shards until their
  /// served entries cover n (or the last shard). Coverage is counted on
  /// each shard's committed image and device overlay — what its scan
  /// kernel will read — by a walk bounded by the n still missing. The
  /// serving fan-out and the version fence both key off this span.
  unsigned scan_end_shard(Key lo, std::uint32_t n) const;

  /// Host-side scan oracle: first `n` entries with key >= lo, across
  /// shard boundaries.
  std::vector<btree::Entry> scan_host(Key lo, std::size_t n) const;

  /// Scatters ops by target shard and applies each sub-batch with the
  /// Algorithm-1 updater (`threads` workers per shard), then resyncs each
  /// touched shard's device image. Aggregated stats across shards.
  UpdateStats update_batch(std::span<const queries::UpdateOp> ops,
                           unsigned threads = 1);

  /// Host-side reference lookups (tests, oracles).
  std::optional<Value> search_host(Key key) const;
  std::vector<btree::Entry> range_host(Key lo, Key hi, std::size_t limit = 0) const;

  /// Attaches metrics: scatter/gather batches bump routing counters
  /// (per-shard query routing, straddling fan-outs). Null = no overhead;
  /// results never change either way.
  void set_observer(const obs::Observer& obs);

 private:
  struct Shard {
    std::unique_ptr<gpusim::Device> device;
    std::unique_ptr<HarmoniaIndex> owned;
    /// `owned`, or the caller's index in the one-shard wrapper.
    HarmoniaIndex* index = nullptr;
  };

  void build_shard(unsigned s, std::span<const btree::Entry> entries);
  /// Images `tree` onto a fresh device as shard `s`.
  void adopt_tree(unsigned s, HarmoniaTree tree, const IndexOptions& options);
  /// Updates routed at a deviceless shard: replayed on a host map, then
  /// the shard is built from whatever survived.
  void apply_to_empty_shard(unsigned s, std::span<const queries::UpdateOp> ops,
                            UpdateStats& agg);

  ShardPlan plan_;
  ShardedOptions options_;
  std::vector<Shard> shards_;
  obs::Observer obs_;
  /// Cached metric handles (null when unobserved). Routed counters are
  /// per shard, resolved once at set_observer.
  std::vector<obs::Counter*> routed_;
  obs::Counter* search_batches_ = nullptr;
  obs::Counter* straddling_ = nullptr;
};

}  // namespace harmonia::shard
