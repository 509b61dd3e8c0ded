#include "shard/sharded_index.hpp"

#include <algorithm>
#include <string>

#include "common/expect.hpp"

namespace harmonia::shard {

ShardedIndex::ShardedIndex(std::span<const btree::Entry> entries, ShardPlan plan,
                           const ShardedOptions& options)
    : plan_(std::move(plan)), options_(options), shards_(plan_.num_shards()) {
  HARMONIA_CHECK(std::is_sorted(
      entries.begin(), entries.end(),
      [](const btree::Entry& a, const btree::Entry& b) { return a.key < b.key; }));
  // Entries are sorted, so each shard's slice is one contiguous subspan.
  std::size_t begin = 0;
  for (unsigned s = 0; s < num_shards(); ++s) {
    std::size_t end = begin;
    while (end < entries.size() && plan_.shard_of(entries[end].key) == s) ++end;
    HARMONIA_CHECK_MSG(end > begin,
                       "shard " << s << " holds no keys — plan the partition "
                                << "from the keys (sample_balanced)");
    adopt_tree(s,
               HarmoniaTree::build(entries.subspan(begin, end - begin),
                                   options_.index.fanout, options_.index.fill_factor),
               options_.index);
    begin = end;
  }
}

ShardedIndex::ShardedIndex(HarmoniaIndex& index)
    : plan_(ShardPlan::from_bounds({0})), shards_(1) {
  options_.index = index.options();
  shards_[0].index = &index;
}

void ShardedIndex::adopt_tree(unsigned s, HarmoniaTree tree,
                              const IndexOptions& options) {
  auto spec = options_.device;
  spec.global_mem_bytes = options_.device_global_bytes;
  spec.name = options_.device.name + " shard" + std::to_string(s);
  shards_[s].device = std::make_unique<gpusim::Device>(spec);
  shards_[s].owned =
      std::make_unique<HarmoniaIndex>(*shards_[s].device, std::move(tree), options);
  shards_[s].index = shards_[s].owned.get();
}

void ShardedIndex::install_shard(unsigned s, HarmoniaTree tree, double fill_factor) {
  HARMONIA_CHECK(s < shards_.size());
  // shard_of is monotone over contiguous planned ranges, so counting the
  // entries inside [lo(s), hi(s)] catches any out-of-range key.
  HARMONIA_CHECK_MSG(
      tree.range(plan_.lo(s), plan_.hi(s)).size() == tree.num_keys(),
      "recovered tree holds keys outside shard " << s << "'s range");
  IndexOptions options = options_.index;
  options.fill_factor = fill_factor;
  adopt_tree(s, std::move(tree), options);
}

void ShardedIndex::set_plan(ShardPlan plan) {
  HARMONIA_CHECK_MSG(plan.num_shards() == plan_.num_shards(),
                     "live resharding moves boundaries between existing "
                     "shards; it cannot change the shard count ("
                         << plan_.num_shards() << " -> " << plan.num_shards()
                         << ")");
  for (unsigned s = 0; s < num_shards(); ++s) {
    const HarmoniaTree& tree = shards_[s].index->tree();
    HARMONIA_CHECK_MSG(
        tree.range(plan.lo(s), plan.hi(s)).size() == tree.num_keys(),
        "new plan leaves shard " << s << " holding keys outside its range "
        "(the migration must re-image both sides before the flip)");
  }
  plan_ = std::move(plan);
}

HarmoniaIndex* ShardedIndex::shard(unsigned s) {
  HARMONIA_CHECK(s < shards_.size());
  return shards_[s].index;
}

const HarmoniaIndex* ShardedIndex::shard(unsigned s) const {
  HARMONIA_CHECK(s < shards_.size());
  return shards_[s].index;
}

std::uint64_t ShardedIndex::shard_key_count(unsigned s) const {
  return shard(s)->tree().num_keys();
}

std::uint64_t ShardedIndex::num_keys() const {
  std::uint64_t n = 0;
  for (unsigned s = 0; s < num_shards(); ++s) n += shard_key_count(s);
  return n;
}

ShardedIndex::SearchResult ShardedIndex::search(std::span<const Key> batch) {
  HARMONIA_CHECK(!batch.empty());
  SearchResult result;
  result.values.assign(batch.size(), kNotFound);
  result.per_shard.assign(num_shards(), 0);

  // Scatter by partition boundary, remembering each query's arrival slot.
  std::vector<std::vector<Key>> keys(num_shards());
  std::vector<std::vector<std::size_t>> slots(num_shards());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const unsigned s = plan_.shard_of(batch[i]);
    keys[s].push_back(batch[i]);
    slots[s].push_back(i);
    ++result.per_shard[s];
  }

  for (unsigned s = 0; s < num_shards(); ++s) {
    if (keys[s].empty()) continue;
    const auto piped =
        pipelined_search(*shards_[s].index, keys[s], options_.link, PipelineOptions{});
    for (std::size_t j = 0; j < slots[s].size(); ++j)
      result.values[slots[s][j]] = piped.values[j];
    result.device_seconds += piped.total_seconds;
    if (piped.total_seconds > result.total_seconds) {
      result.total_seconds = piped.total_seconds;
      result.bottleneck_shard = s;
    }
  }

  return result;
}

unsigned ShardedIndex::scan_end_shard(Key lo, std::uint32_t n) const {
  const std::uint32_t want = std::max<std::uint32_t>(n, 1);
  std::uint64_t have = 0;
  for (unsigned s = plan_.shard_of(lo);; ++s) {
    const HarmoniaIndex& idx = *shards_[s].index;
    have += idx.range_committed(std::max(lo, plan_.lo(s)), plan_.hi(s), want - have)
                .size();
    if (have >= want || s + 1 == num_shards()) return s;
  }
}

std::vector<btree::Entry> ShardedIndex::scan_host(Key lo, std::size_t n) const {
  std::vector<btree::Entry> out;
  for (unsigned s = plan_.shard_of(lo); s < num_shards() && out.size() < n;
       ++s) {
    const auto part = shards_[s].index->range_host(
        std::max(lo, plan_.lo(s)), plan_.hi(s), n - out.size());
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

std::optional<Value> ShardedIndex::search_host(Key key) const {
  return shard(plan_.shard_of(key))->search_host(key);
}

std::vector<btree::Entry> ShardedIndex::range_host(Key lo, Key hi,
                                                   std::size_t limit) const {
  std::vector<btree::Entry> out;
  const unsigned s1 = plan_.shard_of(hi);
  for (unsigned s = plan_.shard_of(lo); s <= s1; ++s) {
    const std::size_t want = limit == 0 ? 0 : limit - out.size();
    auto part = shards_[s].index->range_host(std::max(lo, plan_.lo(s)),
                                             std::min(hi, plan_.hi(s)), want);
    out.insert(out.end(), part.begin(), part.end());
    if (limit != 0 && out.size() >= limit) break;
  }
  return out;
}

}  // namespace harmonia::shard
