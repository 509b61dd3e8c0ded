// Algebraic properties of the bit-window radix sort PSA relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "sort/radix_sort.hpp"
#include "sort/window_sort.hpp"

namespace harmonia::sort {
namespace {

class RadixProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RadixProperties, PreservesMultiset) {
  auto keys = random_keys(4000, GetParam());
  std::map<std::uint64_t, int> before;
  for (auto k : keys) ++before[k];
  keys = sort_window(keys, 40, 24);
  std::map<std::uint64_t, int> after;
  for (auto k : keys) ++after[k];
  EXPECT_EQ(before, after);
}

TEST_P(RadixProperties, Idempotent) {
  auto keys = random_keys(2000, GetParam() + 30);
  keys = sort_window(keys, 48, 16);
  const auto once = keys;
  keys = sort_window(keys, 48, 16);
  EXPECT_EQ(keys, once);
}

TEST_P(RadixProperties, WindowCompositionEqualsFullSort) {
  // LSD stability: sorting the low window then the high window is the
  // full sort — the fact that lets PSA sort *only* the top N bits and
  // still compose with any pre-existing low-bit order.
  auto a = random_keys(3000, GetParam() + 60);
  auto b = a;
  a = sort_window(a, 0, 32);
  a = sort_window(a, 32, 32);
  b = sort_window(b, 0, 64);
  EXPECT_EQ(a, b);
}

TEST_P(RadixProperties, AgreesWithStableSortOnWindow) {
  auto keys = random_keys(1500, GetParam() + 90);
  auto expect = keys;
  const unsigned lo = 13, width = 21;
  const std::uint64_t mask = ((1ULL << width) - 1) << lo;
  std::stable_sort(expect.begin(), expect.end(),
                   [&](std::uint64_t x, std::uint64_t y) {
                     return (x & mask) < (y & mask);
                   });
  keys = sort_window(keys, lo, width);
  EXPECT_EQ(keys, expect);
}

TEST_P(RadixProperties, PairsPermutationIsConsistent) {
  auto keys = random_keys(2000, GetParam() + 120);
  const auto original = keys;
  std::vector<std::uint64_t> perm(keys.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  radix_sort_pairs_bits(keys, perm, 45, 19);
  // The payload is exactly the permutation that produced the key order.
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(keys[i], original[perm[i]]);
  }
  // And it is a bijection.
  std::vector<bool> seen(perm.size(), false);
  for (auto p : perm) {
    ASSERT_LT(p, perm.size());
    ASSERT_FALSE(seen[p]);
    seen[p] = true;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RadixProperties, ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace harmonia::sort
