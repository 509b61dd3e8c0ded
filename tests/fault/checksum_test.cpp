// CRC32 image audit: known-answer vectors, chaining, and detection of
// single-byte damage in every region of a device image.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "btree/btree.hpp"
#include "fault/checksum.hpp"
#include "queries/workload.hpp"

namespace harmonia::fault {
namespace {

TEST(Crc32, KnownAnswerVector) {
  // The standard CRC-32/ISO-HDLC check value.
  const char* s = "123456789";
  EXPECT_EQ(crc32(s, 9), 0xCBF43926u);
  EXPECT_EQ(crc32(s, 0), 0u);
}

TEST(Crc32, ChainsIncrementally) {
  const char* s = "the quick brown fox";
  const std::size_t n = std::strlen(s);
  const auto whole = crc32(s, n);
  const auto chained = crc32(s + 5, n - 5, crc32(s, 5));
  EXPECT_EQ(chained, whole);
  EXPECT_NE(crc32(s, n - 1), whole);
}

/// The textbook one-byte-at-a-time CRC32, as the reference the
/// slice-by-8 routine must match.
std::uint32_t bytewise_crc32(const std::uint8_t* p, std::size_t n, std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xffffffffu;
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  std::vector<std::uint8_t> buf((1 << 20) + 16);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (auto& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x);
  }
  const std::uint32_t seeds[] = {0u, 1u, 0xdeadbeefu, 0xffffffffu};
  for (std::size_t start = 0; start < 8; ++start) {
    for (const std::uint32_t seed : seeds) {
      for (std::size_t n = 0; n <= 64; ++n) {
        ASSERT_EQ(crc32(buf.data() + start, n, seed), bytewise_crc32(buf.data() + start, n, seed))
            << "start " << start << " length " << n << " seed " << seed;
      }
      const std::size_t big = 1 << 20;
      ASSERT_EQ(crc32(buf.data() + start, big, seed), bytewise_crc32(buf.data() + start, big, seed))
          << "start " << start << " 1 MB, seed " << seed;
    }
  }
}

struct ImageFixture {
  ImageFixture() : keys(queries::make_tree_keys(1 << 10, 1)), index([&] {
    std::vector<btree::Entry> entries;
    for (Key k : keys) entries.push_back({k, btree::value_for_key(k)});
    return HarmoniaIndex::build(dev, entries, {.fanout = 16});
  }()) {}

  gpusim::Device dev{[] {
    auto spec = gpusim::titan_v();
    spec.num_sms = 8;
    spec.global_mem_bytes = 256 << 20;
    return spec;
  }()};
  std::vector<Key> keys;
  HarmoniaIndex index;
};

TEST(ImageChecksums, CleanImageVerifies) {
  ImageFixture f;
  EXPECT_TRUE(verify_image(f.index));
  EXPECT_EQ(host_checksums(f.index.tree()), device_checksums(f.index));
}

TEST(ImageChecksums, DetectsDamageInEveryRegion) {
  ImageFixture f;
  auto& mem = f.index.device().memory();
  const auto& img = f.index.image();

  const std::uint64_t addrs[] = {
      img.key_region.addr + 17,
      img.ps_addr(0),  // routed: lands in the constant segment
      img.ps_addr(static_cast<std::uint32_t>(f.index.tree().prefix_sum().size() - 1)),
      img.value_region.addr + 3,
  };
  for (const std::uint64_t addr : addrs) {
    std::uint8_t byte = 0;
    mem.read_bytes(addr, &byte, 1);
    const std::uint8_t original = byte;
    byte ^= 0x5a;
    mem.write_bytes(addr, &byte, 1);
    EXPECT_FALSE(verify_image(f.index)) << "flip at " << addr << " undetected";
    mem.write_bytes(addr, &original, 1);
    EXPECT_TRUE(verify_image(f.index));
  }
}

TEST(ImageChecksums, ResyncRepairsDamage) {
  ImageFixture f;
  auto& mem = f.index.device().memory();
  std::uint8_t byte = 0;
  mem.read_bytes(f.index.image().key_region.addr, &byte, 1);
  byte ^= 0xff;
  mem.write_bytes(f.index.image().key_region.addr, &byte, 1);
  ASSERT_FALSE(verify_image(f.index));

  f.index.resync_device();
  EXPECT_TRUE(verify_image(f.index));
}

}  // namespace
}  // namespace harmonia::fault
