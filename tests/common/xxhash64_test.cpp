// XXH64: known answers from the reference implementation (xxHash 0.8.1,
// seed 0), and streaming in any chunking equals the one-shot digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/xxhash64.hpp"

namespace harmonia {
namespace {

std::uint64_t xxh64(const void* data, std::size_t n) {
  Xxh64 h;
  h.update(data, n);
  return h.digest();
}

std::vector<unsigned char> bytes_0_to_99() {
  std::vector<unsigned char> v(100);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<unsigned char>(i);
  return v;
}

TEST(Xxh64, KnownAnswers) {
  EXPECT_EQ(xxh64("", 0), 0xef46db3751d8e999ull);
  EXPECT_EQ(xxh64("a", 1), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(xxh64("abc", 3), 0x44bc2cf5ad770999ull);
  const auto v = bytes_0_to_99();
  EXPECT_EQ(xxh64(v.data(), v.size()), 0x6ac1e58032166597ull);
}

TEST(Xxh64, EmptyHasherDigestsLikeEmptyInput) {
  EXPECT_EQ(Xxh64{}.digest(), 0xef46db3751d8e999ull);
}

// Two chunks split at every offset cover a partial stripe carried into a
// full one, a split on a stripe boundary, and an empty first or last chunk.
TEST(Xxh64, TwoChunksAtEverySplitMatchOneShot) {
  const auto v = bytes_0_to_99();
  const std::uint64_t whole = xxh64(v.data(), v.size());
  for (std::size_t split = 0; split <= v.size(); ++split) {
    Xxh64 h;
    h.update(v.data(), split);
    h.update(v.data() + split, v.size() - split);
    EXPECT_EQ(h.digest(), whole) << "split at " << split;
  }
}

TEST(Xxh64, ByteAtATimeMatchesOneShot) {
  const auto v = bytes_0_to_99();
  Xxh64 h;
  for (const unsigned char c : v) h.update(&c, 1);
  EXPECT_EQ(h.digest(), xxh64(v.data(), v.size()));
}

TEST(Xxh64, DigestDoesNotEndTheStream) {
  const auto v = bytes_0_to_99();
  Xxh64 h;
  h.update(v.data(), 40);
  EXPECT_EQ(h.digest(), xxh64(v.data(), 40));
  h.update(v.data() + 40, 60);
  EXPECT_EQ(h.digest(), xxh64(v.data(), v.size()));
}

}  // namespace
}  // namespace harmonia
