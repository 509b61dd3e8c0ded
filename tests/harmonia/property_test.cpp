// Cross-cutting property tests of the Harmonia core: range/search
// consistency, PSA algebra, serialization stability, pipeline-chunking
// invariance.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <utility>

#include "btree/btree.hpp"
#include "common/rng.hpp"
#include "harmonia/pipeline.hpp"
#include "harmonia/psa.hpp"
#include "harmonia/tree.hpp"
#include "queries/workload.hpp"

namespace harmonia {
namespace {

class TreeProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeProperties, RangeEqualsFilteredScan) {
  Xoshiro256 rng(GetParam());
  const unsigned fanout = 1u << (2 + rng.next_below(5));
  const std::uint64_t size = 100 + rng.next_below(3000);
  const auto keys = queries::make_tree_keys(size, GetParam() + 7);
  const auto tree = HarmoniaTree::from_btree(btree::make_tree(keys, fanout));

  for (int i = 0; i < 10; ++i) {
    // Bounds deliberately include non-existent keys.
    std::uint64_t lo = rng.next() >> 1;
    std::uint64_t hi = rng.next() >> 1;
    if (lo > hi) std::swap(lo, hi);
    const auto got = tree.range(lo, hi);
    std::vector<btree::Entry> expect;
    for (Key k : keys) {
      if (k >= lo && k <= hi) expect.push_back({k, btree::value_for_key(k)});
    }
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t j = 0; j < got.size(); ++j) {
      ASSERT_EQ(got[j].key, expect[j].key);
      ASSERT_EQ(got[j].value, expect[j].value);
    }
  }
}

TEST_P(TreeProperties, SaveLoadIsIdentity) {
  Xoshiro256 rng(GetParam() * 13);
  const unsigned fanout = 1u << (2 + rng.next_below(5));
  const std::uint64_t size = 50 + rng.next_below(2000);
  const auto keys = queries::make_tree_keys(size, GetParam() + 11);
  const auto tree = HarmoniaTree::from_btree(btree::make_tree(keys, fanout));

  std::stringstream buf;
  tree.save(buf);
  const auto loaded = HarmoniaTree::load(buf);
  // Byte-identical round trip: saving again produces the same image.
  std::stringstream buf2;
  loaded.save(buf2);
  EXPECT_EQ(buf.str(), buf2.str());
}

TEST_P(TreeProperties, FindLeafIsMonotonic) {
  // Ascending keys map to non-decreasing leaf indices — the property that
  // makes PSA produce coalesced leaf access.
  Xoshiro256 rng(GetParam() * 29);
  const auto keys = queries::make_tree_keys(2000, GetParam() + 17);
  const auto tree = HarmoniaTree::from_btree(btree::make_tree(keys, 16));
  std::vector<Key> probes;
  for (int i = 0; i < 200; ++i) probes.push_back(rng.next() >> 1);
  std::sort(probes.begin(), probes.end());
  std::uint32_t prev = 0;
  for (Key p : probes) {
    const std::uint32_t leaf = tree.find_leaf(p);
    EXPECT_GE(leaf, prev);
    prev = leaf;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeProperties, ::testing::Range<std::uint64_t>(1, 11));

class PsaProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PsaProperties, SortingSortedInputIsIdentity) {
  Xoshiro256 rng(GetParam());
  std::vector<Key> batch(500);
  for (auto& k : batch) k = rng.next() >> 1;
  std::sort(batch.begin(), batch.end());
  const auto plan = psa_prepare(batch, 1ULL << 23, gpusim::titan_v(), PsaMode::kPartial);
  EXPECT_EQ(plan.queries, batch);
}

TEST_P(PsaProperties, PartialIsCoarseningOfFull) {
  // The partial order never disagrees with the full order on the sorted
  // bits: full-sorted output, viewed through the top-N-bit lens, equals
  // the partial sort's bucket sequence.
  Xoshiro256 rng(GetParam() + 40);
  std::vector<Key> batch(800);
  for (auto& k : batch) k = rng.next() >> 1;
  const auto partial =
      psa_prepare(batch, 1ULL << 23, gpusim::titan_v(), PsaMode::kPartial);
  const auto full =
      psa_prepare(batch, 1ULL << 23, gpusim::titan_v(), PsaMode::kPartial, 64);
  const unsigned shift = 64 - partial.sorted_bits;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(partial.queries[i] >> shift, full.queries[i] >> shift);
  }
}

TEST_P(PsaProperties, RestoreAfterAnyModeIsExact) {
  Xoshiro256 rng(GetParam() + 80);
  std::vector<Key> batch(300);
  for (auto& k : batch) k = rng.next() >> 1;
  // Arrival order, the complete sort, Equation 2.
  for (const auto& [mode, bits] : {std::pair{PsaMode::kNone, 0u}, std::pair{PsaMode::kPartial, 64u},
                                  std::pair{PsaMode::kPartial, 0u}}) {
    const auto plan = psa_prepare(batch, 1ULL << 20, gpusim::titan_v(), mode, bits);
    // Simulate a kernel that returns query^1 per issue-order slot.
    std::vector<Value> issue(batch.size());
    for (std::size_t i = 0; i < issue.size(); ++i) issue[i] = plan.queries[i] ^ 1;
    std::vector<Value> restored(batch.size());
    psa_restore(plan, issue, restored);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(restored[i], batch[i] ^ 1) << "mode " << static_cast<int>(mode) << " bits " << bits;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PsaProperties, ::testing::Range<std::uint64_t>(1, 9));

TEST(PipelineProperties, ChunkSizeDoesNotChangeResults) {
  gpusim::DeviceSpec spec = gpusim::titan_v();
  spec.num_sms = 4;
  spec.global_mem_bytes = 256 << 20;
  gpusim::Device dev(spec);
  const auto keys = queries::make_tree_keys(1 << 13, 3);
  std::vector<btree::Entry> entries;
  for (Key k : keys) entries.push_back({k, btree::value_for_key(k)});
  auto index = HarmoniaIndex::build(dev, entries, {.fanout = 16});
  const auto qs = queries::make_queries(keys, 3000, queries::Distribution::kUniform, 4);

  TransferModel link;
  std::vector<Value> reference;
  for (std::uint64_t chunk : {128u, 1000u, 4096u}) {
    PipelineOptions opts;
    opts.chunk_size = chunk;
    const auto r = pipelined_search(index, qs, link, opts);
    if (reference.empty()) {
      reference = r.values;
    } else {
      ASSERT_EQ(r.values, reference) << "chunk " << chunk;
    }
  }
}

}  // namespace
}  // namespace harmonia
