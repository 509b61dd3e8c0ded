#include "sort/radix_sort.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/expect.hpp"
#include "sort/window_sort.hpp"

namespace harmonia::sort {
namespace {

TEST(RadixSort, FullSortMatchesStdSort) {
  auto keys = random_keys(10000, 1);
  auto expected = keys;
  std::sort(expected.begin(), expected.end());
  keys = sort_window(keys, 0, 64);
  EXPECT_EQ(keys, expected);
}

TEST(RadixSort, EmptyAndSingleton) {
  std::vector<std::uint64_t> empty;
  empty = sort_window(empty, 0, 64);
  EXPECT_TRUE(empty.empty());
  std::vector<std::uint64_t> one{42};
  one = sort_window(one, 0, 64);
  EXPECT_EQ(one[0], 42u);
}

TEST(RadixSort, AlreadySorted) {
  std::vector<std::uint64_t> keys(1000);
  std::iota(keys.begin(), keys.end(), 0);
  auto expected = keys;
  keys = sort_window(keys, 0, 64);
  EXPECT_EQ(keys, expected);
}

TEST(RadixSort, AllEqual) {
  std::vector<std::uint64_t> keys(100, 7);
  keys = sort_window(keys, 0, 64);
  EXPECT_TRUE(std::all_of(keys.begin(), keys.end(), [](auto k) { return k == 7; }));
}

TEST(RadixSortBits, ZeroBitsIsNoOp) {
  auto keys = random_keys(100, 2);
  auto original = keys;
  keys = sort_window(keys, 32, 0);
  EXPECT_EQ(keys, original);
}

TEST(RadixSortBits, TopBitsOrderIsGroupwise) {
  // Sorting only the top 8 bits: the 8-bit prefixes must ascend, while
  // ties keep arrival order (stability).
  auto keys = random_keys(5000, 3);
  keys = sort_window(keys, 56, 8);
  for (std::size_t i = 1; i < keys.size(); ++i) {
    EXPECT_LE(keys[i - 1] >> 56, keys[i] >> 56);
  }
}

TEST(RadixSortBits, StabilityOnTies) {
  // Keys share the top byte; low bits encode arrival order.
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 100; ++i) keys.push_back((0xAAULL << 56) | i);
  std::vector<std::uint64_t> shuffled = keys;  // in order already
  shuffled = sort_window(shuffled, 56, 8);
  EXPECT_EQ(shuffled, keys);  // stable: untouched within the tie group
}

TEST(RadixSortBits, MidWindowSort) {
  auto keys = random_keys(3000, 4);
  keys = sort_window(keys, 16, 16);  // bits [16, 32)
  for (std::size_t i = 1; i < keys.size(); ++i) {
    EXPECT_LE((keys[i - 1] >> 16) & 0xFFFF, (keys[i] >> 16) & 0xFFFF);
  }
}

TEST(RadixSortBits, NonMultipleOfEightBits) {
  auto keys = random_keys(3000, 5);
  keys = sort_window(keys, 45, 19);  // Equation 2's N=19 case
  for (std::size_t i = 1; i < keys.size(); ++i) {
    EXPECT_LE(keys[i - 1] >> 45, keys[i] >> 45);
  }
}

TEST(RadixSortBits, WindowOverflowThrows) {
  std::vector<std::uint64_t> keys{1, 2};
  EXPECT_THROW(sort_window(keys, 60, 8), ContractViolation);
}

TEST(RadixSortPairs, PayloadFollowsKeys) {
  auto keys = random_keys(2000, 6);
  std::vector<std::uint64_t> payload(keys.size());
  std::iota(payload.begin(), payload.end(), 0);
  auto original = keys;
  radix_sort_pairs_bits(keys, payload, 0, 64);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i], original[payload[i]]);
  }
}

TEST(RadixSortPairs, MismatchedPayloadThrows) {
  std::vector<std::uint64_t> keys{1, 2, 3};
  std::vector<std::uint64_t> payload{1};
  EXPECT_THROW(radix_sort_pairs_bits(keys, payload, 0, 8), ContractViolation);
}

TEST(RadixPasses, CeilDivision) {
  EXPECT_EQ(radix_passes(0), 0u);
  EXPECT_EQ(radix_passes(1), 1u);
  EXPECT_EQ(radix_passes(8), 1u);
  EXPECT_EQ(radix_passes(9), 2u);
  EXPECT_EQ(radix_passes(19), 3u);
  EXPECT_EQ(radix_passes(64), 8u);
}

}  // namespace
}  // namespace harmonia::sort
