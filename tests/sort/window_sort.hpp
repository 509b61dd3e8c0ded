// Shared helpers of the radix sort tests: random keys, and the stable
// window sort of a key vector through radix_sort_indexed_bits.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sort/radix_sort.hpp"

namespace harmonia::sort {

inline std::vector<std::uint64_t> random_keys(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng.next();
  return keys;
}

/// `keys` stably sorted on the bit window [lo_bit, lo_bit + num_bits),
/// with the sort's index output checked against the keys it reports.
inline std::vector<std::uint64_t> sort_window(const std::vector<std::uint64_t>& keys,
                                              unsigned lo_bit, unsigned num_bits) {
  std::vector<std::uint64_t> sorted(keys.size()), index(keys.size());
  radix_sort_indexed_bits(keys, sorted, index, lo_bit, num_bits);
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], keys[index[i]]);
  return sorted;
}

}  // namespace harmonia::sort
