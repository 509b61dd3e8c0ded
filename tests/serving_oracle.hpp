// The epoch-snapshot oracle of the serving suites. Harmonia serves in
// phases: every query batch sees one whole committed tree, and the
// Algorithm-1 batch update between two phases gives the same tree
// whatever the thread schedule. So a served response must equal what a
// std::map holding the stream's first e update epochs answers, where e is
// the epoch the response reports. This header holds that oracle once:
// the per-op semantics, the per-epoch snapshots rebuilt from a run's
// update responses, one checker for every response kind, and the small
// devices and fixtures the serving suites build their indexes on.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "btree/btree.hpp"
#include "gpusim/device.hpp"
#include "gpusim/device_spec.hpp"
#include "harmonia/index.hpp"
#include "queries/batch.hpp"
#include "queries/workload.hpp"
#include "serve/options.hpp"
#include "serve/report.hpp"
#include "serve/request.hpp"
#include "shard/plan.hpp"
#include "shard/sharded_index.hpp"

namespace harmonia::testing_support {

/// The logical contents of the tree: key -> value.
using Oracle = std::map<Key, Value>;

/// BatchUpdater's semantics for one op: an update touches a present key
/// only, an insert upserts, a delete removes the key if present.
inline void apply_op(Oracle& oracle, queries::OpKind kind, Key key, Value value) {
  switch (kind) {
    case queries::OpKind::kUpdate:
      if (auto it = oracle.find(key); it != oracle.end()) it->second = value;
      break;
    case queries::OpKind::kInsert:
      oracle[key] = value;
      break;
    case queries::OpKind::kDelete:
      oracle.erase(key);
      break;
  }
}

inline void apply_op(Oracle& oracle, const serve::Request& r) {
  apply_op(oracle, r.op, r.key, r.value);
}

inline void apply_op(Oracle& oracle, const queries::UpdateOp& op) {
  apply_op(oracle, op.kind, op.key, op.value);
}

inline void apply_ops(Oracle& oracle, std::span<const queries::UpdateOp> ops) {
  for (const queries::UpdateOp& op : ops) apply_op(oracle, op);
}

/// The bulk-loaded contents every fixture starts from.
inline std::vector<btree::Entry> entries_for(const std::vector<Key>& keys) {
  std::vector<btree::Entry> out;
  out.reserve(keys.size());
  for (Key k : keys) out.push_back({k, btree::value_for_key(k)});
  return out;
}

/// The bulk-loaded contents as an oracle.
inline Oracle initial_oracle(const std::vector<Key>& keys) {
  Oracle oracle;
  for (Key k : keys) oracle[k] = btree::value_for_key(k);
  return oracle;
}

/// The epoch each update request was applied in, indexed by request id
/// (0 for a request that is not an update). Request ids are stream
/// positions.
inline std::vector<std::uint64_t> update_epochs(const std::vector<serve::Request>& stream,
                                                const serve::ServerReport& rep) {
  std::vector<std::uint64_t> epoch_of(stream.size(), 0);
  for (const serve::Response& resp : rep.responses) {
    if (resp.kind == serve::RequestKind::kUpdate) epoch_of[resp.id] = resp.epoch;
  }
  return epoch_of;
}

/// The snapshots a run served from: snapshots[e] holds the first e update
/// epochs over the bulk-loaded `keys`. Each update response reports the
/// 1-based epoch that applied it, and an epoch applies its updates in
/// arrival order. Epoch membership comes from the responses, not from
/// max_buffered: an in-flight epoch or migration lets the buffer outgrow
/// it. One pass over the stream buckets the updates by epoch.
inline std::vector<Oracle> epoch_snapshots(const std::vector<Key>& keys,
                                           const std::vector<serve::Request>& stream,
                                           const serve::ServerReport& rep) {
  const std::vector<std::uint64_t> epoch_of = update_epochs(stream, rep);
  std::vector<std::vector<const serve::Request*>> by_epoch(rep.epochs + 1);
  for (const serve::Request& r : stream) {
    const std::uint64_t e = epoch_of[r.id];
    if (r.kind == serve::RequestKind::kUpdate && e >= 1 && e <= rep.epochs)
      by_epoch[e].push_back(&r);
  }
  std::vector<Oracle> snapshots;
  snapshots.reserve(rep.epochs + 1);
  Oracle oracle = initial_oracle(keys);
  snapshots.push_back(oracle);
  for (std::uint64_t e = 1; e <= rep.epochs; ++e) {
    for (const serve::Request* r : by_epoch[e]) apply_op(oracle, *r);
    snapshots.push_back(oracle);
  }
  return snapshots;
}

/// Quiesce epochs with nothing in flight close at a fixed buffer size:
/// the i-th update of the stream (from 0, in arrival order) lands in
/// epoch i / max_buffered + 1, and the final drain takes the rest. Checks
/// that rule on the update responses and on the epoch count, so the
/// snapshots epoch_snapshots() rebuilds are the by-count ones.
inline void expect_epochs_by_count(const std::vector<serve::Request>& stream,
                                   const serve::ServerReport& rep,
                                   std::uint64_t max_buffered) {
  const std::vector<std::uint64_t> epoch_of = update_epochs(stream, rep);
  std::uint64_t updates = 0;
  for (const serve::Request& r : stream) {
    if (r.kind != serve::RequestKind::kUpdate) continue;
    ASSERT_EQ(epoch_of[r.id], updates / max_buffered + 1) << "update request " << r.id;
    ++updates;
  }
  ASSERT_EQ(rep.epochs, (updates + max_buffered - 1) / max_buffered);
}

/// Checks every answered response against the snapshot of the epoch it
/// reports. A point returns the key's value; a range the first
/// max_range_results values in [key, hi]; a scan the first
/// min(max(scan_n, 1), max_range_results) values from key, as the
/// scheduler clamps them. An update completes no earlier than it arrived,
/// in epoch 1 or later. Dropped responses (queue rejection or fault
/// shedding) are exempt. A response served from a torn or half-swapped
/// image matches no whole-epoch snapshot and fails here.
inline void check_responses(const std::vector<serve::Request>& stream,
                            const serve::ServerReport& rep,
                            const std::vector<Oracle>& snapshots,
                            std::size_t max_range_results) {
  ASSERT_EQ(rep.responses.size(), stream.size());
  for (const serve::Response& resp : rep.responses) {
    if (resp.dropped) continue;
    ASSERT_LT(resp.epoch, snapshots.size());
    const Oracle& oracle = snapshots[resp.epoch];
    const serve::Request& req = stream[resp.id];
    switch (resp.kind) {
      case serve::RequestKind::kPoint: {
        const auto it = oracle.find(req.key);
        ASSERT_EQ(resp.value, it != oracle.end() ? it->second : kNotFound)
            << "request " << resp.id << " epoch " << resp.epoch;
        break;
      }
      case serve::RequestKind::kRange: {
        std::vector<Value> want;
        for (auto it = oracle.lower_bound(req.key);
             it != oracle.end() && it->first <= req.hi && want.size() < max_range_results;
             ++it) {
          want.push_back(it->second);
        }
        ASSERT_EQ(resp.range_values, want)
            << "range request " << resp.id << " epoch " << resp.epoch;
        break;
      }
      case serve::RequestKind::kScan: {
        std::size_t limit = req.scan_n ? req.scan_n : 1;
        if (limit > max_range_results) limit = max_range_results;
        std::vector<Value> want;
        for (auto it = oracle.lower_bound(req.key);
             it != oracle.end() && want.size() < limit; ++it) {
          want.push_back(it->second);
        }
        ASSERT_EQ(resp.range_values, want)
            << "scan request " << resp.id << " epoch " << resp.epoch;
        break;
      }
      case serve::RequestKind::kUpdate:
        EXPECT_GE(resp.completion, resp.arrival) << "update request " << resp.id;
        EXPECT_GE(resp.epoch, 1u) << "update request " << resp.id;
        break;
    }
  }
}

/// check_responses() for a quiesce run whose epochs close by count, with
/// the count rule checked first: faults, replicas and catch-up must not
/// move an update to another epoch.
inline void check_quiesce_responses(const std::vector<Key>& keys,
                                    const std::vector<serve::Request>& stream,
                                    const serve::ServerReport& rep,
                                    const serve::ServeOptions& cfg) {
  ASSERT_NO_FATAL_FAILURE(expect_epochs_by_count(stream, rep, cfg.epoch.max_buffered));
  check_responses(stream, rep, epoch_snapshots(keys, stream, rep),
                  cfg.batch.max_range_results);
}

/// How many of the run's responses are of `kind`.
inline std::uint64_t count_responses(const serve::ServerReport& rep, serve::RequestKind kind) {
  std::uint64_t n = 0;
  for (const serve::Response& resp : rep.responses) n += resp.kind == kind;
  return n;
}

/// Every key of `oracle` reads its value through the index's host search
/// (which consults a live delta overlay too).
template <class Index>
void expect_host_reads(const Index& index, const Oracle& oracle) {
  for (const auto& [k, v] : oracle) {
    ASSERT_EQ(index.search_host(k).value_or(kNotFound), v) << "key " << k;
  }
}

/// An 8-SM Titan V: small enough that a 4k-key tree serves a stream of
/// thousands of requests in well under a second. The sharded suites give
/// each shard's device 256 MiB of global memory and the one-device
/// serving suites 512 MiB; each suite keeps the size its numbers were
/// taken at.
inline gpusim::DeviceSpec small_device(std::uint64_t global_mem_bytes = 256ULL << 20) {
  auto spec = gpusim::titan_v();
  spec.num_sms = 8;
  spec.global_mem_bytes = global_mem_bytes;
  return spec;
}

inline constexpr std::uint64_t kServerDeviceBytes = 512ULL << 20;

inline shard::ShardedOptions sharded_options(unsigned fanout = 16) {
  shard::ShardedOptions options;
  options.index.fanout = fanout;
  options.device = small_device();
  options.device_global_bytes = 256ULL << 20;
  return options;
}

/// One device holding a HarmoniaIndex over `tree_keys` bulk-loaded keys.
struct ServerFixture {
  explicit ServerFixture(std::uint64_t tree_keys = 1 << 12, unsigned fanout = 16,
                         const gpusim::DeviceSpec& spec = small_device(kServerDeviceBytes))
      : dev(spec),
        keys(queries::make_tree_keys(tree_keys, 1)),
        index(HarmoniaIndex::build(dev, entries_for(keys), {.fanout = fanout})) {}

  gpusim::Device dev;
  std::vector<Key> keys;
  HarmoniaIndex index;
};

/// The same keys range-partitioned over `shards` balanced devices.
struct ShardedFixture {
  explicit ShardedFixture(unsigned shards, std::uint64_t tree_keys = 1 << 12,
                          unsigned fanout = 16)
      : keys(queries::make_tree_keys(tree_keys, 1)),
        index(entries_for(keys), shard::ShardPlan::sample_balanced(keys, shards),
              sharded_options(fanout)) {}

  std::vector<Key> keys;
  shard::ShardedIndex index;
};

}  // namespace harmonia::testing_support
