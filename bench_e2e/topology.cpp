#include "topology.hpp"

#include "btree/btree.hpp"
#include "common/timer.hpp"
#include "queries/workload.hpp"
#include "serve/server.hpp"
#include "shard/plan.hpp"
#include "shard/sharded_server.hpp"

namespace e2e {

using namespace harmonia;

namespace {
// The serving stack's device preset (shard::TopologySpec's defaults).
gpusim::DeviceSpec device_spec() {
  gpusim::DeviceSpec spec = gpusim::titan_v();
  spec.global_mem_bytes = 8ULL << 30;
  return spec;
}
}  // namespace

Topology::Topology(unsigned log2_keys, unsigned shards, std::uint64_t seed) {
  WallTimer t;
  keys_ = queries::make_tree_keys(1ULL << log2_keys, seed);
  std::vector<btree::Entry> entries;
  entries.reserve(keys_.size());
  for (Key k : keys_) entries.push_back({k, btree::value_for_key(k)});
  times_.keygen = t.elapsed_seconds();

  const IndexOptions options;
  if (shards > 1) {
    t.reset();
    shard::ShardedOptions so;
    so.index = options;
    so.device = device_spec();
    so.device_global_bytes = so.device.global_mem_bytes;
    sharded_ = std::make_unique<shard::ShardedIndex>(
        entries, shard::ShardPlan::sample_balanced(keys_, shards), so);
    times_.bulk_load = t.elapsed_seconds();
    return;
  }
  t.reset();
  btree::BTree builder(options.fanout);
  builder.bulk_load(entries, options.fill_factor);
  HarmoniaTree tree = HarmoniaTree::from_btree(builder);
  times_.bulk_load = t.elapsed_seconds();
  t.reset();
  device_ = std::make_unique<gpusim::Device>(device_spec());
  index_ = std::make_unique<HarmoniaIndex>(*device_, std::move(tree), options);
  times_.upload = t.elapsed_seconds();
}

unsigned Topology::shards() const { return sharded_ ? sharded_->num_shards() : 1; }

unsigned Topology::shard_of(Key key) const {
  return sharded_ ? sharded_->plan().shard_of(key) : 0;
}

HarmoniaIndex& Topology::shard_index(unsigned s) {
  if (!sharded_) return *index_;
  return *sharded_->shard(s);
}

std::unique_ptr<serve::Backend> Topology::make_backend(const serve::ServeOptions& options) {
  if (sharded_) return std::make_unique<shard::ShardedServer>(*sharded_, options);
  return std::make_unique<serve::Server>(*index_, options);
}

}  // namespace e2e
