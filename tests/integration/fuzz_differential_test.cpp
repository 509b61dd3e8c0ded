// Differential fuzzing: random configurations (fanout, fill, tree size,
// distribution, group size, PSA mode) run the device kernels against the
// host oracles. Any divergence between the four implementations of search
// (CPU B+tree, Harmonia host, Harmonia device kernel, HB+ device kernel)
// is a bug.
#include <gtest/gtest.h>

#include "btree/btree.hpp"
#include "common/rng.hpp"
#include "harmonia/index.hpp"
#include "hbtree/index.hpp"
#include "queries/workload.hpp"

namespace harmonia {
namespace {

gpusim::DeviceSpec fuzz_spec(Xoshiro256& rng) {
  auto spec = gpusim::titan_v();
  spec.num_sms = 1 + static_cast<unsigned>(rng.next_below(16));
  spec.global_mem_bytes = 512 << 20;
  // Shrink caches sometimes to exercise eviction paths.
  if (rng.next_below(2) == 0) {
    spec.l2_bytes = 128 << 10;
    spec.readonly_cache_bytes_per_sm = 4 << 10;
  }
  return spec;
}

class FuzzDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzDifferential, AllImplementationsAgree) {
  Xoshiro256 rng(GetParam());

  const unsigned fanout = 1u << (2 + rng.next_below(6));         // 4..128
  const double fill = 0.4 + rng.next_double() * 0.6;             // 0.4..1.0
  const std::uint64_t size = 64 + rng.next_below(6000);          // 64..~6k keys
  const std::uint64_t nq = 32 + rng.next_below(800);
  const auto dist = static_cast<queries::Distribution>(rng.next_below(5));

  const auto keys = queries::make_tree_keys(size, GetParam() + 1);
  std::vector<btree::Entry> entries;
  for (Key k : keys) entries.push_back({k, btree::value_for_key(k)});

  const auto bt = btree::make_tree(keys, fanout, fill);
  bt.validate();

  gpusim::Device dev_h(fuzz_spec(rng));
  HarmoniaIndex::Options opts;
  opts.fanout = fanout;
  opts.fill_factor = fill;
  // Sometimes starve the constant budget to force the global ps path.
  if (rng.next_below(3) == 0) opts.const_budget_bytes = rng.next_below(256);
  auto h_idx = HarmoniaIndex::build(dev_h, entries, opts);
  h_idx.tree().validate();

  gpusim::Device dev_b(fuzz_spec(rng));
  auto hb_idx = hbtree::HBTreeIndex::build(dev_b, entries, fanout, fill);

  // Mix hits with misses.
  auto qs = queries::make_queries(keys, nq, dist, GetParam() + 2);
  const auto missing = queries::make_missing_keys(keys, nq / 4 + 1, GetParam() + 3);
  qs.insert(qs.end(), missing.begin(), missing.end());

  QueryOptions qopts;
  // Arrival order, the complete sort or Equation 2.
  const auto psa = rng.next_below(3);
  qopts.psa = psa == 0 ? PsaMode::kNone : PsaMode::kPartial;
  if (psa == 1) qopts.psa_override_bits = 64;
  if (rng.next_below(2) != 0) {
    qopts.group_size = 1u << rng.next_below(6);  // 1..32; else the NTG model
  }
  qopts.early_exit = rng.next_below(4) != 0;

  const auto hr = h_idx.search(qs, qopts);
  const auto br = hb_idx.search(qs);

  for (std::size_t i = 0; i < qs.size(); ++i) {
    const auto oracle = bt.search(qs[i]);
    const Value want = oracle ? *oracle : kNotFound;
    ASSERT_EQ(h_idx.search_host(qs[i]).value_or(kNotFound), want)
        << "harmonia host diverged at query " << i;
    ASSERT_EQ(hr.values[i], want) << "harmonia kernel diverged at query " << i
                                  << " (gs=" << hr.group_size_used << ")";
    ASSERT_EQ(br.values[i], want) << "hb+ kernel diverged at query " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDifferential,
                         ::testing::Range<std::uint64_t>(1, 25));

class FuzzUpdates : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzUpdates, BatchesMatchMapOracle) {
  Xoshiro256 rng(GetParam() * 977);
  const unsigned fanout = 1u << (2 + rng.next_below(5));  // 4..64
  const double fill = 0.5 + rng.next_double() * 0.5;
  const std::uint64_t size = 256 + rng.next_below(4000);

  const auto keys = queries::make_tree_keys(size, GetParam() + 10);
  std::map<Key, Value> oracle;
  for (Key k : keys) oracle[k] = btree::value_for_key(k);

  const auto bt = btree::make_tree(keys, fanout, fill);
  BatchUpdater updater(HarmoniaTree::from_btree(bt));

  std::vector<Key> current = keys;
  for (int round = 0; round < 4; ++round) {
    queries::BatchSpec spec;
    // Keep updates below half the key set so distinct-key sampling holds
    // and the outcome stays thread-schedule independent (see batch.cpp).
    spec.size = 16 + rng.next_below(current.size() / 8 + 1);
    spec.insert_fraction = rng.next_double() * 0.4;
    spec.delete_fraction = rng.next_double() * 0.2;
    spec.seed = GetParam() * 31 + static_cast<std::uint64_t>(round);
    const auto ops = queries::make_update_batch(current, spec);

    for (const auto& op : ops) {
      switch (op.kind) {
        case queries::OpKind::kUpdate: {
          auto it = oracle.find(op.key);
          if (it != oracle.end()) it->second = op.value;
          break;
        }
        case queries::OpKind::kInsert:
          oracle[op.key] = op.value;
          break;
        case queries::OpKind::kDelete:
          oracle.erase(op.key);
          break;
      }
    }

    const unsigned threads = 1 + static_cast<unsigned>(rng.next_below(4));
    updater.apply(ops, threads);
    updater.tree().validate();
    ASSERT_EQ(updater.tree().num_keys(), oracle.size()) << "round " << round;

    for (const auto& [k, v] : oracle) {
      const auto got = updater.tree().search(k);
      ASSERT_TRUE(got.has_value()) << "round " << round << " key " << k;
      ASSERT_EQ(*got, v) << "round " << round << " key " << k;
    }

    current.clear();
    for (const auto& [k, v] : oracle) current.push_back(k);
    ASSERT_FALSE(current.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzUpdates, ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace harmonia
