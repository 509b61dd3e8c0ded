#include "shard/backend_factory.hpp"

#include <utility>

#include "btree/btree.hpp"
#include "common/expect.hpp"
#include "queries/workload.hpp"
#include "shard/plan.hpp"

namespace harmonia::shard {

ServingStack::ServingStack(const TopologySpec& topo,
                           const serve::ServeOptions& options) {
  HARMONIA_CHECK_MSG(topo.shards >= 1 && topo.shards <= ShardPlan::kMaxShards,
                     "shards must lie in [1, " << ShardPlan::kMaxShards
                                               << "], got " << topo.shards);
  // Reject a bad option set before recovery or the durability domain
  // touches the snapshot directory.
  options.validate(topo.shards);
  keys_ = queries::make_tree_keys(1ULL << topo.log2_keys, topo.seed);
  const auto entries = btree::entries_for(keys_);

  serve::ServeOptions opts = options;
  ShardedOptions shopts;
  shopts.index.fanout = topo.fanout;
  shopts.device = topo.device;
  shopts.device_global_bytes = topo.device_global_bytes;
  shopts.link = opts.link;
  // Balanced partition over the served keys (one shard for one device):
  // every shard is populated, which ShardedIndex requires.
  sharded_ = std::make_unique<ShardedIndex>(
      entries, ShardPlan::sample_balanced(keys_, topo.shards), shopts);
  if (opts.persist.recover) {
    // Shards recover independently: each cold-starts from its own
    // directory's newest-valid snapshot + log, falling back to the bulk
    // build above (already in place) for a shard with nothing decodable.
    // A snapshot's sidecar fill factor keeps the gapped-leaf geometry of
    // the crashed generation, so later compactions re-gap identically.
    persist::RecoveryManager rm(opts.persist, opts.epoch.seconds_per_op);
    for (unsigned s = 0; s < topo.shards; ++s) {
      persist::RecoveryManager::Materials mat = rm.load_shard(s);
      const std::uint64_t rebuild_keys = sharded_->shard_key_count(s);
      if (mat.snapshot.has_value())
        sharded_->install_shard(s, std::move(mat.snapshot->tree),
                                mat.snapshot->extras.fill_factor);
      recoveries_.push_back(rm.finish(std::move(mat), *sharded_->shard(s),
                                      opts.link, rebuild_keys));
    }
  }
  // The durability domain is wired after any recovery: its per-shard
  // writers read from disk whether a snapshot exists, and recovery
  // rewrites the disk (the checkpoint) as its final step.
  if (opts.persist.enabled()) {
    durability_ =
        std::make_unique<persist::DurabilityDomain>(opts.persist, topo.shards);
    opts.durability = durability_.get();
  }
  backend_ = std::make_unique<ShardedServer>(*sharded_, opts);
}

}  // namespace harmonia::shard
