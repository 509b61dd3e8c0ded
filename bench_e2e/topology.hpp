// The system under test for one workload: the served keys plus either
// one device + HarmoniaIndex or a range-sharded ShardedIndex, built from
// the seed with each set-up layer timed on its own.
//
// shard::ServingStack builds the same thing, but it neither splits its
// set-up time by layer nor exposes the per-shard indexes the probes
// replay batches through.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gpusim/device.hpp"
#include "harmonia/index.hpp"
#include "serve/backend.hpp"
#include "serve/options.hpp"
#include "shard/sharded_index.hpp"

namespace e2e {

using harmonia::Key;

/// Wall seconds of one set-up, split by layer.
struct SetupTimes {
  double keygen = 0.0;     // queries::make_tree_keys + entries
  double bulk_load = 0.0;  // btree bulk load + HarmoniaTree (sharded: + upload)
  double upload = 0.0;     // device image upload (single device only)
  double total() const { return keygen + bulk_load + upload; }
};

class Topology {
 public:
  Topology(unsigned log2_keys, unsigned shards, std::uint64_t seed);

  const std::vector<Key>& keys() const { return keys_; }
  const SetupTimes& times() const { return times_; }
  unsigned shards() const;
  unsigned shard_of(Key key) const;
  /// The index serving shard `s` (the single index when unsharded).
  harmonia::HarmoniaIndex& shard_index(unsigned s);
  /// Null when unsharded.
  harmonia::shard::ShardedIndex* sharded() { return sharded_.get(); }

  /// A fresh serving backend over this index (Server or ShardedServer).
  std::unique_ptr<harmonia::serve::Backend> make_backend(
      const harmonia::serve::ServeOptions& options);

 private:
  std::vector<Key> keys_;
  SetupTimes times_;
  std::unique_ptr<harmonia::gpusim::Device> device_;
  std::unique_ptr<harmonia::HarmoniaIndex> index_;
  std::unique_ptr<harmonia::shard::ShardedIndex> sharded_;
};

}  // namespace e2e
