// The chunked radix sort gives std::stable_sort's order on the bit window,
// for keys and permutation, whatever the chunk count: around the host
// pool's threshold, at sizes no chunk count divides, on windows of 1 to 64
// bits, and on inputs heavy in duplicates.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "sort/radix_sort.hpp"
#include "sort/window_sort.hpp"

namespace harmonia::sort {
namespace {

/// `n` keys drawn from `distinct` random ones.
std::vector<std::uint64_t> duplicate_keys(std::size_t n, std::size_t distinct,
                                          std::uint64_t seed) {
  const auto pool = random_keys(distinct, seed);
  Xoshiro256 rng(seed + 1);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = pool[rng.next_below(distinct)];
  return keys;
}

/// The input indices in std::stable_sort's order on the window.
std::vector<std::uint64_t> stable_order(const std::vector<std::uint64_t>& keys, unsigned lo,
                                        unsigned bits) {
  const std::uint64_t mask = bits == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << bits) - 1);
  std::vector<std::uint64_t> order(keys.size());
  std::iota(order.begin(), order.end(), std::uint64_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::uint64_t a, std::uint64_t b) {
    return (keys[a] >> lo & mask) < (keys[b] >> lo & mask);
  });
  return order;
}

void expect_stable(const std::vector<std::uint64_t>& keys, unsigned lo, unsigned bits) {
  const auto order = stable_order(keys, lo, bits);
  std::vector<std::uint64_t> want_keys(keys.size());
  for (std::size_t i = 0; i < order.size(); ++i) want_keys[i] = keys[order[i]];
  for (unsigned chunks = 1; chunks <= 4; ++chunks) {
    SCOPED_TRACE(::testing::Message() << keys.size() << " keys, window [" << lo << ", "
                                      << lo + bits << "), " << chunks << " chunks");
    std::vector<std::uint64_t> sorted(keys.size()), index(keys.size());
    radix_sort_indexed_bits(keys, sorted, index, lo, bits, chunks);
    EXPECT_EQ(sorted, want_keys);
    EXPECT_EQ(index, order);

    auto pair_keys = keys;
    std::vector<std::uint64_t> payload(keys.size());
    for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i * 3 + 1;
    radix_sort_pairs_bits(pair_keys, payload, lo, bits, chunks);
    EXPECT_EQ(pair_keys, want_keys);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      ASSERT_EQ(payload[i], order[i] * 3 + 1) << "slot " << i;
    }
  }
}

struct Window {
  unsigned lo;
  unsigned bits;
};

TEST(ChunkedSort, MatchesStableSortAroundPoolThreshold) {
  // Just below and above the threshold; neither size divides by 2, 3 or 4.
  const std::size_t sizes[] = {kPoolMinKeys - 1, kPoolMinKeys + 7};
  const Window windows[] = {{46, 18}, {0, 64}, {63, 1}, {20, 9}};
  std::uint64_t seed = 1;
  for (const std::size_t n : sizes) {
    for (const Window w : windows) expect_stable(random_keys(n, seed++), w.lo, w.bits);
  }
}

TEST(ChunkedSort, MatchesStableSortOnEveryWindowWidth) {
  for (unsigned bits = 1; bits <= 64; ++bits) {
    const unsigned lo = (bits * 7) % (65 - bits);
    expect_stable(random_keys(1001, 100 + bits), lo, bits);
  }
}

TEST(ChunkedSort, MatchesStableSortOnDuplicates) {
  expect_stable(duplicate_keys(kPoolMinKeys + 3, 37, 7), 40, 24);
  expect_stable(duplicate_keys(kPoolMinKeys + 3, 37, 7), 0, 64);
  expect_stable(duplicate_keys(5003, 2, 9), 46, 18);
  expect_stable(std::vector<std::uint64_t>(70001, 42), 46, 18);
}

TEST(ChunkedSort, MoreChunksThanKeys) {
  expect_stable({5, 3}, 0, 8);
  expect_stable({9, 1, 9}, 0, 4);
}

TEST(ChunkedSort, PoolChosenChunkCountMatches) {
  // chunks == 0: one per thread of the host pool when the sort is large
  // enough and the pool is free.
  for (const std::size_t n : {kPoolMinKeys - 1, kPoolMinKeys, kPoolMinKeys + 7}) {
    const auto keys = random_keys(n, n);
    const auto order = stable_order(keys, 46, 18);
    std::vector<std::uint64_t> sorted(n), index(n);
    radix_sort_indexed_bits(keys, sorted, index, 46, 18);
    EXPECT_EQ(index, order) << n << " keys";
  }
}

TEST(ChunkedSort, ZeroBitsIsIdentity) {
  const auto keys = random_keys(100, 3);
  std::vector<std::uint64_t> sorted(100), index(100);
  radix_sort_indexed_bits(keys, sorted, index, 64, 0);
  EXPECT_EQ(sorted, keys);
  for (std::size_t i = 0; i < index.size(); ++i) EXPECT_EQ(index[i], i);
}

}  // namespace
}  // namespace harmonia::sort
