#include "harmonia/psa.hpp"

#include <gtest/gtest.h>

#include "common/expect.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "queries/workload.hpp"
#include "sort/gpu_sort_model.hpp"

namespace harmonia {
namespace {

std::vector<Key> random_batch(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Key> out(n);
  for (auto& k : out) k = rng.next() >> 1;  // avoid kPadKey
  return out;
}

TEST(Psa, NoneKeepsArrivalOrder) {
  const auto batch = random_batch(1000, 1);
  const auto plan = psa_prepare(batch, 1 << 20, gpusim::titan_v(), PsaMode::kNone);
  EXPECT_EQ(plan.queries, batch);
  EXPECT_EQ(plan.sorted_bits, 0u);
  EXPECT_DOUBLE_EQ(plan.sort_cycles, 0.0);
  for (std::size_t i = 0; i < batch.size(); ++i) EXPECT_EQ(plan.permutation[i], i);
}

TEST(Psa, FullSortsCompletely) {
  const auto batch = random_batch(2000, 2);
  const auto plan = psa_prepare(batch, 1 << 20, gpusim::titan_v(), PsaMode::kPartial, 64);
  EXPECT_EQ(plan.sorted_bits, 64u);
  EXPECT_TRUE(std::is_sorted(plan.queries.begin(), plan.queries.end()));
  EXPECT_GT(plan.sort_cycles, 0.0);
}

TEST(Psa, PartialUsesEquation2Bits) {
  const auto batch = random_batch(1000, 3);
  const auto plan = psa_prepare(batch, 1ULL << 23, gpusim::titan_v(), PsaMode::kPartial);
  EXPECT_EQ(plan.sorted_bits, 19u);  // §4.1.2 example
  EXPECT_EQ(psa_equation2_bits(1ULL << 23, gpusim::titan_v()), 19u);
  // Sorted on the top 19 bits: prefixes ascend.
  for (std::size_t i = 1; i < plan.queries.size(); ++i) {
    EXPECT_LE(plan.queries[i - 1] >> 45, plan.queries[i] >> 45);
  }
}

TEST(Psa, PartialCheaperThanFull) {
  const auto batch = random_batch(4096, 4);
  const auto spec = gpusim::titan_v();
  const auto partial = psa_prepare(batch, 1ULL << 23, spec, PsaMode::kPartial);
  const auto full = psa_prepare(batch, 1ULL << 23, spec, PsaMode::kPartial, 64);
  EXPECT_LT(partial.sort_cycles, full.sort_cycles);
  // ~35% of the full sort (3 of 8 passes).
  EXPECT_NEAR(partial.sort_cycles / full.sort_cycles, 0.375, 0.05);
}

TEST(Psa, OverrideBitsRespected) {
  const auto batch = random_batch(500, 5);
  const auto plan =
      psa_prepare(batch, 1ULL << 23, gpusim::titan_v(), PsaMode::kPartial, 8);
  EXPECT_EQ(plan.sorted_bits, 8u);
  for (std::size_t i = 1; i < plan.queries.size(); ++i) {
    EXPECT_LE(plan.queries[i - 1] >> 56, plan.queries[i] >> 56);
  }
}

TEST(Psa, OverrideBitsEdgeCases) {
  const auto batch = random_batch(300, 9);
  const auto spec = gpusim::titan_v();
  // 0 = no override: the Equation-2 bit count applies.
  const auto eq2 = psa_prepare(batch, 1ULL << 23, spec, PsaMode::kPartial, 0);
  EXPECT_EQ(eq2.sorted_bits, 19u);
  // 64 = the whole key: equivalent to a full sort.
  const auto full = psa_prepare(batch, 1ULL << 23, spec, PsaMode::kPartial, 64);
  EXPECT_EQ(full.sorted_bits, 64u);
  EXPECT_TRUE(std::is_sorted(full.queries.begin(), full.queries.end()));
  std::vector<Value> restored(batch.size());
  psa_restore(full, full.queries, restored);
  EXPECT_EQ(restored, batch);
}

TEST(Psa, OverrideBitsBeyondKeyWidthThrows) {
  // Regression: 65 underflowed lo_bit = 64 - sorted_bits, and the
  // unsigned wrap slipped past radix_sort_pairs_bits' own window check —
  // an out-of-range shift instead of a diagnosable error.
  const auto batch = random_batch(64, 10);
  const auto spec = gpusim::titan_v();
  EXPECT_THROW(psa_prepare(batch, 1ULL << 23, spec, PsaMode::kPartial, 65),
               ContractViolation);
  EXPECT_THROW(psa_prepare(batch, 1ULL << 23, spec, PsaMode::kPartial, 1000),
               ContractViolation);
  // The check guards every mode, including ones that ignore the override.
  EXPECT_THROW(psa_prepare(batch, 1ULL << 23, spec, PsaMode::kNone, 65),
               ContractViolation);
}

TEST(Psa, RestoreInvertsPermutation) {
  const auto batch = random_batch(777, 6);
  const auto plan = psa_prepare(batch, 1ULL << 20, gpusim::titan_v(), PsaMode::kPartial, 64);
  // Results in issue order = the sorted queries themselves; restoring must
  // give each arrival slot its own query back.
  std::vector<Value> restored(batch.size());
  psa_restore(plan, plan.queries, restored);
  EXPECT_EQ(restored, batch);
}

TEST(Psa, PermutationIsBijective) {
  const auto batch = random_batch(1234, 7);
  const auto plan = psa_prepare(batch, 1ULL << 23, gpusim::titan_v(), PsaMode::kPartial);
  std::vector<bool> seen(batch.size(), false);
  for (auto p : plan.permutation) {
    ASSERT_LT(p, batch.size());
    ASSERT_FALSE(seen[p]);
    seen[p] = true;
  }
}

TEST(Psa, TinyTreeSkipsSorting) {
  const auto batch = random_batch(100, 8);
  const auto plan = psa_prepare(batch, 8, gpusim::titan_v(), PsaMode::kPartial);
  EXPECT_EQ(plan.sorted_bits, 0u);
  EXPECT_EQ(plan.queries, batch);
}

TEST(Psa, RestoreRejectsSizeMismatch) {
  const auto batch = random_batch(10, 9);
  const auto plan = psa_prepare(batch, 1 << 20, gpusim::titan_v(), PsaMode::kNone);
  std::vector<Value> wrong(5);
  std::vector<Value> out(10);
  EXPECT_THROW(psa_restore(plan, wrong, out), ContractViolation);
}

/// The plan a stable sort on the window gives: the issue order of every
/// PSA implementation so far.
PsaPlan reference_plan(const std::vector<Key>& batch, unsigned sorted_bits) {
  PsaPlan plan;
  plan.permutation.resize(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) plan.permutation[i] = i;
  if (sorted_bits != 0) {
    const unsigned shift = 64 - sorted_bits;
    std::stable_sort(plan.permutation.begin(), plan.permutation.end(),
                     [&](std::uint64_t a, std::uint64_t b) {
                       return batch[a] >> shift < batch[b] >> shift;
                     });
  }
  for (const std::uint64_t i : plan.permutation) plan.queries.push_back(batch[i]);
  return plan;
}

TEST(Psa, PlanMatchesStableSortReference) {
  // The batches of the tests above, one above the host pool's threshold
  // and one heavy in duplicates, in every mode.
  struct Case {
    std::size_t size;
    std::uint64_t seed;
    std::uint64_t tree_size;
  };
  const Case cases[] = {{1000, 1, 1 << 20}, {2000, 2, 1 << 20},  {1000, 3, 1 << 23},
                        {777, 6, 1 << 20},  {1234, 7, 1 << 23},  {100, 8, 8},
                        {10, 9, 1 << 20},   {(1 << 16) + 5, 10, 1 << 22}};
  const gpusim::DeviceSpec spec = gpusim::titan_v();
  auto check = [&](const std::vector<Key>& batch, std::uint64_t tree_size, PsaMode mode,
                   unsigned override_bits) {
    const PsaPlan plan = psa_prepare(batch, tree_size, spec, mode, override_bits);
    const unsigned bits = mode == PsaMode::kNone ? 0
                          : override_bits != 0   ? override_bits
                                                 : sort::psa_bits(64, tree_size, spec.line_bytes / 8);
    const PsaPlan want = reference_plan(batch, bits);
    EXPECT_EQ(plan.sorted_bits, bits);
    EXPECT_EQ(plan.queries, want.queries);
    EXPECT_EQ(plan.permutation, want.permutation);
    EXPECT_DOUBLE_EQ(plan.sort_cycles,
                     bits == 0 ? 0.0 : sort::gpu_radix_sort_cycles(spec, batch.size(), bits));
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << c.size << " queries, seed " << c.seed);
    const auto batch = random_batch(c.size, c.seed);
    check(batch, c.tree_size, PsaMode::kNone, 0);
    check(batch, c.tree_size, PsaMode::kPartial, 0);
    check(batch, c.tree_size, PsaMode::kPartial, 5);
    check(batch, c.tree_size, PsaMode::kPartial, 64);
  }
  // 70000 queries over 300 distinct keys.
  std::vector<Key> dups = random_batch(300, 11);
  Xoshiro256 rng(12);
  while (dups.size() < 70000) dups.push_back(dups[rng.next_below(300)]);
  check(dups, 1 << 22, PsaMode::kPartial, 0);
  check(dups, 1 << 22, PsaMode::kPartial, 64);
}

}  // namespace
}  // namespace harmonia
