// Range-sharded multi-device state under the serving layer.
//
// One ShardedIndex owns, per shard of its ShardPlan, an independent
// simulated device plus a HarmoniaIndex built from the entries falling
// into that shard's key range. Shards never reference each other. It is
// the partition and its devices, not a second serving path: ranges,
// scans and updates fan out through shard::ShardedServer, which keeps
// one scheduler and one epoch engine per shard over these indexes
// (docs/sharding.md). What stays here:
//   partition : plan / set_plan (live resharding's flip), install_shard
//               (recovery), shard / shard_key_count;
//   search    : offline point batches — scatter by partition boundary,
//               push each shard's sub-batch through its own PCIe pipeline
//               (pipelined_search -> dispatch_chunk, the full PSA + NTG
//               device path), gather back into arrival order. Devices run
//               concurrently: wall time is the slowest shard's pipeline,
//               which is what the scaling bench measures;
//   scan span : scan_end_shard, which sizes the server's scan fan-out and
//               its version fence;
//   oracles   : host-side search / range / scan across shard boundaries.
//
// Every shard holds keys: the constructor rejects a plan that leaves a
// shard empty, so shard(s) is never null.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "gpusim/device.hpp"
#include "harmonia/index.hpp"
#include "harmonia/pipeline.hpp"
#include "shard/plan.hpp"

namespace harmonia::shard {

struct ShardedOptions {
  /// Per-shard tree construction (fanout, fill factor, const budget).
  IndexOptions index;
  /// Per-shard device preset; every shard gets an identical device.
  gpusim::DeviceSpec device = gpusim::titan_v();
  /// Host<->device link; each shard owns one (transfers overlap).
  TransferModel link;
  /// Global-memory cap per simulated device (backing store is lazily
  /// allocated, but small caps keep accidental huge sweeps honest).
  std::uint64_t device_global_bytes = 2ULL << 30;
};

class ShardedIndex {
 public:
  /// Builds one tree + device image per shard from sorted, distinct
  /// entries (the same bulk-load contract as HarmoniaIndex::build).
  /// Throws ContractViolation when the plan leaves a shard without keys
  /// (plan the partition from the keys, e.g. ShardPlan::sample_balanced).
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

  /// The shard's index (never null).
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

  /// Scatter -> per-shard PCIe pipeline (default PipelineOptions) ->
  /// gather. Results are identical to a single-device index over the
  /// same entries.
  SearchResult search(std::span<const Key> batch);

  /// The last shard a scan of `n` results starting at `lo` can touch:
  /// extends from shard_of(lo) through the following shards until their
  /// served entries cover n (or the last shard). Coverage is counted on
  /// each shard's committed image and device overlay — what its scan
  /// kernel will read — by a walk bounded by the n still missing. The
  /// serving fan-out and the version fence both key off this span.
  unsigned scan_end_shard(Key lo, std::uint32_t n) const;

  /// Host-side oracles across shard boundaries (tests, migrations): a
  /// point lookup, the entries in [lo, hi], and the first `n` entries
  /// with key >= lo.
  std::optional<Value> search_host(Key key) const;
  std::vector<btree::Entry> range_host(Key lo, Key hi, std::size_t limit = 0) const;
  std::vector<btree::Entry> scan_host(Key lo, std::size_t n) const;

 private:
  struct Shard {
    std::unique_ptr<gpusim::Device> device;
    std::unique_ptr<HarmoniaIndex> owned;
    /// `owned`, or the caller's index in the one-shard wrapper.
    HarmoniaIndex* index = nullptr;
  };

  /// Images `tree` onto a fresh device as shard `s`.
  void adopt_tree(unsigned s, HarmoniaTree tree, const IndexOptions& options);

  ShardPlan plan_;
  ShardedOptions options_;
  std::vector<Shard> shards_;
};

}  // namespace harmonia::shard
