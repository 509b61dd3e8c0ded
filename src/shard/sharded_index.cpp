#include "shard/sharded_index.hpp"

#include <algorithm>
#include <map>
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
    if (end > begin) build_shard(s, entries.subspan(begin, end - begin));
    begin = end;
  }
}

ShardedIndex::ShardedIndex(HarmoniaIndex& index)
    : plan_(ShardPlan::from_bounds({0})), shards_(1) {
  options_.index = index.options();
  shards_[0].index = &index;
}

void ShardedIndex::build_shard(unsigned s, std::span<const btree::Entry> entries) {
  btree::BTree builder(options_.index.fanout);
  builder.bulk_load(entries, options_.index.fill_factor);
  adopt_tree(s, HarmoniaTree::from_btree(builder), options_.index);
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
    const HarmoniaIndex* idx = shards_[s].index;
    if (idx == nullptr) continue;
    HARMONIA_CHECK_MSG(
        idx->tree().range(plan.lo(s), plan.hi(s)).size() ==
            idx->tree().num_keys(),
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
  const HarmoniaIndex* idx = shard(s);
  return idx ? idx->tree().num_keys() : 0;
}

std::uint64_t ShardedIndex::num_keys() const {
  std::uint64_t n = 0;
  for (unsigned s = 0; s < num_shards(); ++s) n += shard_key_count(s);
  return n;
}

void ShardedIndex::set_observer(const obs::Observer& obs) {
  obs_ = obs;
  if (obs.metrics == nullptr) return;
  obs::MetricsRegistry& m = *obs.metrics;
  routed_.assign(num_shards(), nullptr);
  for (unsigned s = 0; s < num_shards(); ++s) {
    routed_[s] = &m.counter("shard_routed_queries_total{shard=\"" +
                            std::to_string(s) + "\"}");
  }
  search_batches_ = &m.counter("shard_search_batches_total");
  straddling_ = &m.counter("shard_straddling_ranges_total");
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
  if (obs_.metrics != nullptr) {
    search_batches_->inc();
    for (unsigned s = 0; s < num_shards(); ++s)
      if (result.per_shard[s] > 0) routed_[s]->inc(result.per_shard[s]);
  }

  for (unsigned s = 0; s < num_shards(); ++s) {
    if (keys[s].empty()) continue;
    // A deviceless shard holds no keys: its queries stay kNotFound.
    if (!shards_[s].index) continue;
    const auto piped = pipelined_search(*shards_[s].index, keys[s], options_.link,
                                        options_.pipeline);
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

ShardedIndex::RangeResult ShardedIndex::range(std::span<const Key> los,
                                              std::span<const Key> his,
                                              unsigned max_results) {
  HARMONIA_CHECK(los.size() == his.size());
  HARMONIA_CHECK(!los.empty());
  HARMONIA_CHECK(max_results > 0);

  RangeResult result;
  result.values.resize(los.size());

  // Fan out: each query contributes one clamped sub-query to every shard
  // its span touches. Sub-queries are gathered per shard so each device
  // serves one batch.
  std::vector<std::vector<Key>> sub_lo(num_shards()), sub_hi(num_shards());
  std::vector<std::vector<std::size_t>> sub_query(num_shards());
  for (std::size_t i = 0; i < los.size(); ++i) {
    HARMONIA_CHECK(los[i] <= his[i]);
    const unsigned s0 = plan_.shard_of(los[i]);
    const unsigned s1 = plan_.shard_of(his[i]);
    if (s1 > s0) {
      ++result.straddling;
      if (straddling_ != nullptr) straddling_->inc();
    }
    for (unsigned s = s0; s <= s1; ++s) {
      if (!shards_[s].index) continue;
      sub_lo[s].push_back(std::max(los[i], plan_.lo(s)));
      sub_hi[s].push_back(std::min(his[i], plan_.hi(s)));
      sub_query[s].push_back(i);
    }
  }

  // Shards in ascending order: a query's per-shard pieces append in key
  // order, so the merged list is ascending without a sort.
  for (unsigned s = 0; s < num_shards(); ++s) {
    if (sub_lo[s].empty()) continue;
    const auto r = shards_[s].index->range_device(sub_lo[s], sub_hi[s], max_results);
    // Same service model as the online scheduler: bounds up, kernel,
    // values down, on this shard's own link.
    const double service =
        options_.link.seconds(2 * sub_lo[s].size() * sizeof(Key)) +
        r.kernel_seconds + options_.link.seconds(r.total_results * sizeof(Value));
    result.total_seconds = std::max(result.total_seconds, service);
    for (std::size_t j = 0; j < sub_query[s].size(); ++j) {
      auto& out = result.values[sub_query[s][j]];
      for (Value v : r.values[j]) {
        if (out.size() >= max_results) break;
        out.push_back(v);
        ++result.total_results;
      }
    }
  }
  return result;
}

unsigned ShardedIndex::scan_end_shard(Key lo, std::uint32_t n) const {
  const std::uint32_t want = std::max<std::uint32_t>(n, 1);
  std::uint64_t have = 0;
  for (unsigned s = plan_.shard_of(lo);; ++s) {
    if (const HarmoniaIndex* idx = shards_[s].index) {
      have += idx->range_committed(std::max(lo, plan_.lo(s)), plan_.hi(s), want - have)
                  .size();
    }
    if (have >= want || s + 1 == num_shards()) return s;
  }
}

ShardedIndex::RangeResult ShardedIndex::scan(std::span<const Key> los,
                                             std::span<const std::uint32_t> ns) {
  HARMONIA_CHECK(los.size() == ns.size());
  HARMONIA_CHECK(!los.empty());

  RangeResult result;
  result.values.resize(los.size());

  // Fan out: each scan contributes one clamped sub-scan to every shard
  // its coverage reaches. Each sub-scan asks for the full n — earlier
  // shards may hold fewer tail keys than counted on — and the merge
  // truncates.
  std::vector<std::vector<Key>> sub_lo(num_shards());
  std::vector<std::vector<std::uint32_t>> sub_n(num_shards());
  std::vector<std::vector<std::size_t>> sub_query(num_shards());
  for (std::size_t i = 0; i < los.size(); ++i) {
    const std::uint32_t n = std::max<std::uint32_t>(ns[i], 1);
    const unsigned s0 = plan_.shard_of(los[i]);
    const unsigned s1 = scan_end_shard(los[i], n);
    if (s1 > s0) {
      ++result.straddling;
      if (straddling_ != nullptr) straddling_->inc();
    }
    for (unsigned s = s0; s <= s1; ++s) {
      if (!shards_[s].index) continue;
      sub_lo[s].push_back(std::max(los[i], plan_.lo(s)));
      sub_n[s].push_back(n);
      sub_query[s].push_back(i);
    }
  }

  // Shards in ascending order: a scan's per-shard pieces append in key
  // order, so the merged list is ascending without a sort.
  for (unsigned s = 0; s < num_shards(); ++s) {
    if (sub_lo[s].empty()) continue;
    const auto r = shards_[s].index->scan_device(sub_lo[s], sub_n[s]);
    const double service =
        options_.link.seconds(sub_lo[s].size() *
                              (sizeof(Key) + sizeof(std::uint32_t))) +
        r.kernel_seconds + options_.link.seconds(r.total_results * sizeof(Value));
    result.total_seconds = std::max(result.total_seconds, service);
    for (std::size_t j = 0; j < sub_query[s].size(); ++j) {
      const std::size_t i = sub_query[s][j];
      auto& out = result.values[i];
      for (Value v : r.values[j]) {
        if (out.size() >= std::max<std::uint32_t>(ns[i], 1)) break;
        out.push_back(v);
        ++result.total_results;
      }
    }
  }
  return result;
}

std::vector<btree::Entry> ShardedIndex::scan_host(Key lo, std::size_t n) const {
  std::vector<btree::Entry> out;
  for (unsigned s = plan_.shard_of(lo); s < num_shards() && out.size() < n;
       ++s) {
    if (!shards_[s].index) continue;
    const auto part = shards_[s].index->range_host(
        std::max(lo, plan_.lo(s)), plan_.hi(s), n - out.size());
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

UpdateStats ShardedIndex::update_batch(std::span<const queries::UpdateOp> ops,
                                       unsigned threads) {
  // Scatter preserving arrival order within each shard: ops commute across
  // shards (disjoint key ranges) but not within one.
  std::vector<std::vector<queries::UpdateOp>> per_shard(num_shards());
  for (const auto& op : ops) per_shard[plan_.shard_of(op.key)].push_back(op);

  // One host CPU applies shard after shard, so the stats (wall apply
  // time included) sum.
  UpdateStats agg;
  for (unsigned s = 0; s < num_shards(); ++s) {
    if (per_shard[s].empty()) continue;
    if (!shards_[s].index) {
      apply_to_empty_shard(s, per_shard[s], agg);
      continue;
    }
    agg += shards_[s].index->update_batch(per_shard[s], threads);
  }
  return agg;
}

void ShardedIndex::apply_to_empty_shard(unsigned s,
                                        std::span<const queries::UpdateOp> ops,
                                        UpdateStats& agg) {
  // No tree to lock: replay the sub-batch on a host map with the
  // BatchUpdater's op semantics, then bulk-build the shard from the
  // survivors.
  std::map<Key, Value> m;
  for (const auto& op : ops) {
    switch (op.kind) {
      case queries::OpKind::kUpdate:
        ++agg.updates;
        if (auto it = m.find(op.key); it != m.end())
          it->second = op.value;
        else
          ++agg.failed;
        break;
      case queries::OpKind::kInsert:
        ++agg.inserts;
        m[op.key] = op.value;
        break;
      case queries::OpKind::kDelete:
        ++agg.deletes;
        if (m.erase(op.key) == 0) ++agg.failed;
        break;
    }
  }
  if (m.empty()) return;
  std::vector<btree::Entry> entries;
  entries.reserve(m.size());
  for (const auto& [k, v] : m) entries.push_back({k, v});
  build_shard(s, entries);
}

std::optional<Value> ShardedIndex::search_host(Key key) const {
  const HarmoniaIndex* idx = shard(plan_.shard_of(key));
  return idx ? idx->search_host(key) : std::nullopt;
}

std::vector<btree::Entry> ShardedIndex::range_host(Key lo, Key hi,
                                                   std::size_t limit) const {
  std::vector<btree::Entry> out;
  const unsigned s1 = plan_.shard_of(hi);
  for (unsigned s = plan_.shard_of(lo); s <= s1; ++s) {
    const HarmoniaIndex* idx = shard(s);
    if (!idx) continue;
    const std::size_t want = limit == 0 ? 0 : limit - out.size();
    auto part = idx->range_host(std::max(lo, plan_.lo(s)),
                                std::min(hi, plan_.hi(s)), want);
    out.insert(out.end(), part.begin(), part.end());
    if (limit != 0 && out.size() >= limit) break;
  }
  return out;
}

}  // namespace harmonia::shard
