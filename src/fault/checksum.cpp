#include "fault/checksum.hpp"

#include <array>
#include <vector>

namespace harmonia::fault {

namespace {

/// Slice-by-8 tables: tables[0] is the bytewise table and tables[s]
/// advances tables[0]'s entry through `s` more zero bytes, so one step
/// folds eight input bytes with eight lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    tables[0][i] = c;
  }
  for (std::size_t s = 1; s < tables.size(); ++s) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[s - 1][i];
      tables[s][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// Four bytes as a little-endian word, whatever the host's byte order.
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

template <typename T>
std::uint32_t crc_span(std::span<const T> data, std::uint32_t seed = 0) {
  return crc32(data.data(), data.size_bytes(), seed);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  const auto& t = kCrcTables;
  std::uint32_t c = seed ^ 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
        t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

ImageChecksums host_checksums(const HarmoniaTree& tree) {
  ImageChecksums sums;
  sums.keys = crc_span(tree.key_region());
  sums.prefix_sum = crc_span(tree.prefix_sum());
  sums.values = crc_span(tree.value_region());
  return sums;
}

ImageChecksums device_checksums(const HarmoniaIndex& index) {
  const auto& mem = index.device().memory();
  const auto& img = index.image();
  const TreeView regions = index.committed();

  ImageChecksums sums;
  sums.keys = crc_span(regions.keys);

  // Prefix sum as the kernel would read it: ps_addr routes the top
  // `ps_const_count` nodes to the constant segment, the rest to global.
  std::vector<std::uint32_t> ps(regions.prefix_sum.size());
  for (std::uint32_t node = 0; node < ps.size(); ++node) {
    ps[node] = mem.read<std::uint32_t>(img.ps_addr(node));
  }
  sums.prefix_sum = crc_span(std::span<const std::uint32_t>(ps));

  sums.values = crc_span(regions.values);
  return sums;
}

}  // namespace harmonia::fault
