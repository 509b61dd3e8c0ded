// Long-horizon systems test: the paper's phase-based usage model (§3.2)
// run for many alternating query/update phases against a strict oracle,
// with structural validation and device-image consistency after every
// phase. This is the OLAP example as a test.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "harmonia/index.hpp"
#include "queries/workload.hpp"

namespace harmonia {
namespace {

gpusim::DeviceSpec test_spec() {
  auto spec = gpusim::titan_v();
  spec.num_sms = 8;
  spec.global_mem_bytes = 512 << 20;
  return spec;
}

TEST(PhaseWorkflow, TenPhasesStayConsistent) {
  gpusim::Device dev(test_spec());
  const auto initial = queries::make_tree_keys(6000, 1);
  std::map<Key, Value> oracle;
  std::vector<btree::Entry> entries;
  for (Key k : initial) {
    const Value v = btree::value_for_key(k);
    oracle[k] = v;
    entries.push_back({k, v});
  }
  auto index = HarmoniaIndex::build(dev, entries, {.fanout = 16, .fill_factor = 0.8});

  Xoshiro256 rng(2);
  for (int phase = 0; phase < 10; ++phase) {
    std::vector<Key> current;
    current.reserve(oracle.size());
    for (const auto& [k, v] : oracle) current.push_back(k);

    if (phase % 2 == 0) {
      // Query phase: hits + misses, rotating distribution and PSA mode.
      auto qs = queries::make_queries(
          current, 800, static_cast<queries::Distribution>(phase / 2 % 4),
          static_cast<std::uint64_t>(phase) + 10);
      const auto missing =
          queries::make_missing_keys(current, 200, static_cast<std::uint64_t>(phase) + 50);
      qs.insert(qs.end(), missing.begin(), missing.end());

      // Draws cycle arrival order, a complete sort and Equation 2's bits.
      const int psa = phase / 2 % 3;
      QueryOptions qopts;
      qopts.psa = psa == 0 ? PsaMode::kNone : PsaMode::kPartial;
      if (psa == 1) qopts.psa_override_bits = 64;
      const auto r = index.search(qs, qopts);
      for (std::size_t i = 0; i < qs.size(); ++i) {
        const auto it = oracle.find(qs[i]);
        const Value want = it != oracle.end() ? it->second : kNotFound;
        ASSERT_EQ(r.values[i], want) << "phase " << phase << " query " << i;
      }
    } else {
      // Update phase: mixed batch, multiple threads.
      queries::BatchSpec spec;
      spec.size = 64 + rng.next_below(current.size() / 8);
      spec.insert_fraction = 0.1 + rng.next_double() * 0.2;
      spec.delete_fraction = rng.next_double() * 0.1;
      spec.seed = static_cast<std::uint64_t>(phase) * 7 + 3;
      const auto ops = queries::make_update_batch(current, spec);
      for (const auto& op : ops) {
        switch (op.kind) {
          case queries::OpKind::kUpdate:
            if (auto it = oracle.find(op.key); it != oracle.end()) it->second = op.value;
            break;
          case queries::OpKind::kInsert:
            oracle[op.key] = op.value;
            break;
          case queries::OpKind::kDelete:
            oracle.erase(op.key);
            break;
        }
      }
      const auto stats = index.update_batch(ops, 3);
      ASSERT_EQ(stats.total_ops(), ops.size());
      index.tree().validate();
      ASSERT_EQ(index.tree().num_keys(), oracle.size()) << "phase " << phase;
    }
  }

  // Final sweep: every oracle key answers, over the device kernel.
  std::vector<Key> all;
  std::vector<Value> want;
  for (const auto& [k, v] : oracle) {
    all.push_back(k);
    want.push_back(v);
  }
  const auto r = index.search(all);
  for (std::size_t i = 0; i < all.size(); ++i) {
    ASSERT_EQ(r.values[i], want[i]) << "final sweep key " << all[i];
  }
  // And the full host range scan agrees with the oracle's order.
  const auto scan = index.range_host(0, ~std::uint64_t{0} - 1);
  ASSERT_EQ(scan.size(), oracle.size());
  std::size_t i = 0;
  for (const auto& [k, v] : oracle) {
    ASSERT_EQ(scan[i].key, k);
    ASSERT_EQ(scan[i].value, v);
    ++i;
  }
}

}  // namespace
}  // namespace harmonia
