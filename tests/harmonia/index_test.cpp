#include "harmonia/index.hpp"

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "common/expect.hpp"

#include "queries/workload.hpp"

namespace harmonia {
namespace {

gpusim::DeviceSpec test_spec() {
  auto spec = gpusim::titan_v();
  spec.num_sms = 8;
  spec.global_mem_bytes = 512 << 20;
  return spec;
}

std::vector<btree::Entry> entries_for(const std::vector<Key>& keys) {
  std::vector<btree::Entry> out;
  for (Key k : keys) out.push_back({k, btree::value_for_key(k)});
  return out;
}

TEST(HarmoniaIndex, BuildAndSearchAllPsaModes) {
  gpusim::Device dev(test_spec());
  const auto keys = queries::make_tree_keys(3000, 1);
  auto index = HarmoniaIndex::build(dev, entries_for(keys), {.fanout = 16});
  const auto qs = queries::make_queries(keys, 1000, queries::Distribution::kUniform, 2);

  // Arrival order, the complete sort, Equation 2.
  for (const auto& [mode, bits] : {std::pair{PsaMode::kNone, 0u}, std::pair{PsaMode::kPartial, 64u},
                                  std::pair{PsaMode::kPartial, 0u}}) {
    QueryOptions qopts;
    qopts.psa = mode;
    qopts.psa_override_bits = bits;
    const auto result = index.search(qs, qopts);
    ASSERT_EQ(result.values.size(), qs.size());
    for (std::size_t i = 0; i < qs.size(); ++i) {
      ASSERT_EQ(result.values[i], btree::value_for_key(qs[i]))
          << "mode " << static_cast<int>(mode) << " bits " << bits << " query " << i;
    }
  }
}

TEST(HarmoniaIndex, ResultsInArrivalOrderDespiteSorting) {
  gpusim::Device dev(test_spec());
  const auto keys = queries::make_tree_keys(2000, 3);
  auto index = HarmoniaIndex::build(dev, entries_for(keys), {.fanout = 16});
  // Reverse-sorted arrival order: PSA reorders internally, results must
  // come back in arrival order.
  std::vector<Key> qs(keys.rbegin(), keys.rbegin() + 500);
  const auto result = index.search(qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ASSERT_EQ(result.values[i], btree::value_for_key(qs[i]));
  }
}

TEST(HarmoniaIndex, MissesGetSentinel) {
  gpusim::Device dev(test_spec());
  const auto keys = queries::make_tree_keys(1000, 4);
  auto index = HarmoniaIndex::build(dev, entries_for(keys), {.fanout = 16});
  const auto missing = queries::make_missing_keys(keys, 100, 5);
  const auto result = index.search(missing);
  for (Value v : result.values) EXPECT_EQ(v, kNotFound);
}

TEST(HarmoniaIndex, NtgSelectsNarrowGroupForLargeFanout) {
  gpusim::Device dev(test_spec());
  const auto keys = queries::make_tree_keys(8000, 6);
  auto index = HarmoniaIndex::build(dev, entries_for(keys), {.fanout = 64});
  const auto qs = queries::make_queries(keys, 2000, queries::Distribution::kUniform, 7);
  const auto result = index.search(qs);
  EXPECT_LT(result.group_size_used, 32u);  // narrowed below fanout-based
  EXPECT_GE(result.group_size_used, 1u);
}

TEST(HarmoniaIndex, ExplicitGroupSizeRespected) {
  gpusim::Device dev(test_spec());
  const auto keys = queries::make_tree_keys(1000, 8);
  auto index = HarmoniaIndex::build(dev, entries_for(keys), {.fanout = 16});
  QueryOptions qopts;
  qopts.group_size = 8;
  const auto result = index.search(queries::make_queries(keys, 100, queries::Distribution::kUniform, 9), qopts);
  EXPECT_EQ(result.group_size_used, 8u);
}

TEST(HarmoniaIndex, TimingFieldsPopulated) {
  gpusim::Device dev(test_spec());
  const auto keys = queries::make_tree_keys(2000, 10);
  auto index = HarmoniaIndex::build(dev, entries_for(keys), {.fanout = 16});
  const auto qs = queries::make_queries(keys, 512, queries::Distribution::kUniform, 11);
  const auto result = index.search(qs);
  EXPECT_GT(result.kernel_seconds, 0.0);
  EXPECT_GT(result.sort_seconds, 0.0);  // partial PSA sorts by default here
  EXPECT_GT(result.throughput(), 0.0);
  EXPECT_GT(result.sorted_bits, 0u);
}

TEST(HarmoniaIndex, QueryUpdateQueryPhases) {
  gpusim::Device dev(test_spec());
  const auto keys = queries::make_tree_keys(3000, 12);
  auto index = HarmoniaIndex::build(dev, entries_for(keys), {.fanout = 16});

  // Phase 1: query.
  auto qs = queries::make_queries(keys, 300, queries::Distribution::kUniform, 13);
  auto r1 = index.search(qs);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    ASSERT_EQ(r1.values[i], btree::value_for_key(qs[i]));
  }

  // Phase 2: batch update (inserts force splits + device re-sync).
  queries::BatchSpec spec;
  spec.size = 1000;
  spec.insert_fraction = 0.3;
  spec.seed = 14;
  const auto ops = queries::make_update_batch(keys, spec);
  std::map<Key, Value> oracle;
  for (Key k : keys) oracle[k] = btree::value_for_key(k);
  for (const auto& op : ops) {
    if (op.kind == queries::OpKind::kInsert || op.kind == queries::OpKind::kUpdate) {
      oracle[op.key] = op.value;
    }
  }
  const auto stats = index.update_batch(ops, 2);
  EXPECT_EQ(stats.total_ops(), 1000u);
  EXPECT_GT(index.last_sync_seconds(), 0.0);
  index.tree().validate();

  // Phase 3: query again — device image must reflect the updates.
  std::vector<Key> qs2;
  for (const auto& op : ops) qs2.push_back(op.key);
  const auto r2 = index.search(qs2);
  for (std::size_t i = 0; i < qs2.size(); ++i) {
    ASSERT_EQ(r2.values[i], oracle.at(qs2[i])) << "key " << qs2[i];
  }
}

TEST(HarmoniaIndex, HostRangeMatchesTree) {
  gpusim::Device dev(test_spec());
  const auto keys = queries::make_tree_keys(2000, 15);
  auto index = HarmoniaIndex::build(dev, entries_for(keys), {.fanout = 32});
  const auto out = index.range_host(keys[10], keys[60]);
  ASSERT_EQ(out.size(), 51u);
  EXPECT_EQ(out.front().key, keys[10]);
  EXPECT_EQ(out.back().key, keys[60]);
}

TEST(HarmoniaIndex, RangeDeviceMatchesHost) {
  gpusim::Device dev(test_spec());
  const auto keys = queries::make_tree_keys(3000, 18);
  auto index = HarmoniaIndex::build(dev, entries_for(keys), {.fanout = 16});

  std::vector<Key> los, his;
  for (std::size_t i = 0; i < 20; ++i) {
    los.push_back(keys[i * 100]);
    his.push_back(keys[i * 100 + 30]);
  }
  const auto result = index.range_device(los, his);
  ASSERT_EQ(result.values.size(), los.size());
  for (std::size_t q = 0; q < los.size(); ++q) {
    const auto expect = index.range_host(los[q], his[q], 64);
    ASSERT_EQ(result.values[q].size(), expect.size()) << "query " << q;
    for (std::size_t j = 0; j < expect.size(); ++j) {
      ASSERT_EQ(result.values[q][j], expect[j].value);
    }
  }
  EXPECT_EQ(result.total_results, 20u * 31u);
  EXPECT_GT(result.kernel_seconds, 0.0);
}

TEST(HarmoniaIndex, RangeDeviceCapsResults) {
  gpusim::Device dev(test_spec());
  const auto keys = queries::make_tree_keys(1000, 19);
  auto index = HarmoniaIndex::build(dev, entries_for(keys), {.fanout = 16});
  const std::vector<Key> los{keys.front()};
  const std::vector<Key> his{keys.back()};
  const auto result = index.range_device(los, his, 8);
  ASSERT_EQ(result.values[0].size(), 8u);
}

TEST(HarmoniaIndex, RangeDeviceRejectsMismatchedBounds) {
  gpusim::Device dev(test_spec());
  const auto keys = queries::make_tree_keys(100, 20);
  auto index = HarmoniaIndex::build(dev, entries_for(keys), {.fanout = 8});
  const std::vector<Key> los{1, 2};
  const std::vector<Key> his{3};
  EXPECT_THROW(index.range_device(los, his), ContractViolation);
}

TEST(HarmoniaIndex, PsaOverrideBits) {
  gpusim::Device dev(test_spec());
  const auto keys = queries::make_tree_keys(4000, 16);
  auto index = HarmoniaIndex::build(dev, entries_for(keys), {.fanout = 16});
  QueryOptions qopts;
  qopts.psa_override_bits = 12;
  const auto result =
      index.search(queries::make_queries(keys, 200, queries::Distribution::kUniform, 17), qopts);
  EXPECT_EQ(result.sorted_bits, 12u);
}

}  // namespace
}  // namespace harmonia
