#include "oracle.hpp"

#include <algorithm>
#include <iostream>
#include <map>
#include <optional>

#include "btree/btree.hpp"

namespace e2e {

using namespace harmonia;
using serve::Request;
using serve::RequestKind;
using serve::Response;

namespace {

constexpr std::uint64_t kReportLimit = 5;

/// The epoch-0 state of an update-free stream: the sorted tree keys,
/// valued by btree::value_for_key. No copy.
class KeyVectorSnapshot {
 public:
  explicit KeyVectorSnapshot(std::span<const Key> keys) : keys_(keys) {}

  std::optional<Value> find(Key k) const {
    if (!std::binary_search(keys_.begin(), keys_.end(), k)) return std::nullopt;
    return btree::value_for_key(k);
  }
  std::vector<Value> collect(Key lo, Key hi, std::size_t limit) const {
    std::vector<Value> out;
    for (auto it = std::lower_bound(keys_.begin(), keys_.end(), lo);
         it != keys_.end() && *it <= hi && out.size() < limit; ++it) {
      out.push_back(btree::value_for_key(*it));
    }
    return out;
  }

 private:
  std::span<const Key> keys_;
};

/// The mutable snapshot walked forward epoch by epoch.
class MapSnapshot {
 public:
  explicit MapSnapshot(std::span<const Key> keys) {
    for (Key k : keys) map_.emplace_hint(map_.end(), k, btree::value_for_key(k));
  }

  /// BatchUpdater semantics: an update of an absent key and a delete of
  /// an absent key fail silently; an insert upserts.
  void apply(const Request& r) {
    switch (r.op) {
      case queries::OpKind::kUpdate:
        if (auto it = map_.find(r.key); it != map_.end()) it->second = r.value;
        break;
      case queries::OpKind::kInsert:
        map_[r.key] = r.value;
        break;
      case queries::OpKind::kDelete:
        map_.erase(r.key);
        break;
    }
  }
  std::optional<Value> find(Key k) const {
    const auto it = map_.find(k);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }
  std::vector<Value> collect(Key lo, Key hi, std::size_t limit) const {
    std::vector<Value> out;
    for (auto it = map_.lower_bound(lo); it != map_.end() && it->first <= hi && out.size() < limit;
         ++it) {
      out.push_back(it->second);
    }
    return out;
  }

 private:
  std::map<Key, Value> map_;
};

template <typename Snapshot>
bool answer_ok(const Snapshot& snap, const Request& req, const Response& resp,
               unsigned max_range_results) {
  switch (resp.kind) {
    case RequestKind::kPoint:
      return resp.value == snap.find(req.key).value_or(kNotFound);
    case RequestKind::kRange:
      return resp.range_values == snap.collect(req.key, req.hi, max_range_results);
    case RequestKind::kScan: {
      const std::size_t n = std::min<std::size_t>(std::max<std::uint32_t>(req.scan_n, 1),
                                                  max_range_results);
      return resp.range_values == snap.collect(req.key, kPadKey, n);
    }
    case RequestKind::kUpdate:
      return true;
  }
  return false;
}

void report_mismatch(std::uint64_t wrong, const Response& resp) {
  if (wrong > kReportLimit) return;
  std::cerr << "WRONG ANSWER: request " << resp.id << " (" << serve::to_string(resp.kind)
            << ") at epoch " << resp.epoch << "\n";
}

}  // namespace

std::uint64_t check_stream(std::span<const Key> initial_keys, std::span<const Request> stream,
                           const serve::ServerReport& report, unsigned max_range_results) {
  // Update requests grouped by the epoch that applied them, in arrival
  // (id) order; query responses in epoch order.
  std::vector<std::vector<std::uint64_t>> updates_of;
  std::vector<const Response*> answers;
  answers.reserve(report.responses.size());
  for (const Response& resp : report.responses) {
    if (resp.kind == RequestKind::kUpdate) {
      if (updates_of.size() <= resp.epoch) updates_of.resize(resp.epoch + 1);
      updates_of[resp.epoch].push_back(resp.id);
    } else if (!resp.dropped) {
      answers.push_back(&resp);
    }
  }
  std::stable_sort(answers.begin(), answers.end(),
                   [](const Response* a, const Response* b) { return a->epoch < b->epoch; });

  std::uint64_t wrong = 0;
  const auto check = [&](const auto& snap, const Response& resp) {
    if (!answer_ok(snap, stream[resp.id], resp, max_range_results)) report_mismatch(++wrong, resp);
  };
  if (updates_of.empty()) {
    const KeyVectorSnapshot snap(initial_keys);
    for (const Response* resp : answers) check(snap, *resp);
    return wrong;
  }
  MapSnapshot snap(initial_keys);
  unsigned applied = 0;
  for (const Response* resp : answers) {
    while (applied < resp->epoch) {
      ++applied;
      if (applied >= updates_of.size()) continue;
      std::vector<std::uint64_t>& ids = updates_of[applied];
      std::sort(ids.begin(), ids.end());
      for (std::uint64_t id : ids) snap.apply(stream[id]);
    }
    check(snap, *resp);
  }
  return wrong;
}

std::uint64_t check_lookups(std::span<const Key> sorted_keys, std::span<const Key> batch,
                            std::span<const Value> values) {
  const KeyVectorSnapshot snap(sorted_keys);
  std::uint64_t wrong = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (values[i] == snap.find(batch[i]).value_or(kNotFound)) continue;
    if (++wrong <= kReportLimit)
      std::cerr << "WRONG ANSWER: lookup " << i << " of a closed-loop batch\n";
  }
  return wrong;
}

}  // namespace e2e
