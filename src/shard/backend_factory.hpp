// The one place that turns "how many devices" into a serving stack.
//
// Callers (the server-sim tool, the serving benches) describe the
// topology — key count, fanout, shard count, device preset — and get back
// a ShardedServer& plus the served keys. Every shard count, one
// included, is a ShardedServer over a sample-balanced ShardedIndex, so
// no tool or bench branches on the shard count
// (docs/serving.md#migration).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gpusim/device.hpp"
#include "harmonia/index.hpp"
#include "persist/durability.hpp"
#include "persist/recovery.hpp"
#include "serve/options.hpp"
#include "shard/sharded_index.hpp"
#include "shard/sharded_server.hpp"

namespace harmonia::shard {

struct TopologySpec {
  /// log2 of the key count; keys come from queries::make_tree_keys(seed).
  std::uint64_t log2_keys = 18;
  unsigned fanout = 64;
  /// Devices, each serving one shard of a sample_balanced partition of
  /// the served keys (1 = a single device).
  unsigned shards = 1;
  std::uint64_t seed = 1;
  /// Device preset for every simulated device in the topology.
  gpusim::DeviceSpec device = gpusim::titan_v();
  std::uint64_t device_global_bytes = 8ULL << 30;
};

/// Owns the whole serving topology — keys, device(s), index(es), the
/// optional durability domain, and the ShardedServer over them — with the
/// lifetimes in the right order. Build one, then drive `backend()` with
/// a request stream.
///
/// When `options.persist` is enabled the stack wires a DurabilityDomain
/// through the backend (write-ahead epoch logs + cadence snapshots, one
/// directory per shard). With `options.persist.recover` additionally
/// set, construction cold-starts every shard from disk: newest-valid
/// snapshot (overlay sidecar folded back in), log replay past it, and a
/// checkpoint — falling back to a bulk rebuild from the topology's keys
/// for a shard with no decodable snapshot. `recoveries()` reports what
/// each shard did.
class ServingStack {
 public:
  ServingStack(const TopologySpec& topo, const serve::ServeOptions& options);

  ShardedServer& backend() { return *backend_; }
  const std::vector<Key>& keys() const { return keys_; }
  unsigned num_shards() const { return backend_->num_shards(); }

  /// The wired durability domain, or null when persistence is off.
  persist::DurabilityDomain* durability() { return durability_.get(); }
  /// One report per shard when the stack recovered at construction;
  /// empty otherwise.
  const std::vector<persist::RecoveryReport>& recoveries() const {
    return recoveries_;
  }

 private:
  std::vector<Key> keys_;
  std::unique_ptr<ShardedIndex> sharded_;
  std::unique_ptr<persist::DurabilityDomain> durability_;
  std::vector<persist::RecoveryReport> recoveries_;
  std::unique_ptr<ShardedServer> backend_;
};

}  // namespace harmonia::shard
