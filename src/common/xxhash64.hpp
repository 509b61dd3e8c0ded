// Streaming XXH64 with seed 0 (the published xxHash 64-bit algorithm,
// little-endian input words), the checksum that seals v3 tree images.
//
// Feeding the same bytes through any sequence of update() calls gives
// the digest of one contiguous buffer: a 32-byte stripe buffer carries
// a partial stripe between calls, so small field-by-field writes and
// large region writes hash alike.
#pragma once

#include <cstddef>
#include <cstdint>

namespace harmonia {

class Xxh64 {
 public:
  Xxh64();

  void update(const void* data, std::size_t n);
  /// Digest of every byte fed so far; update() may continue afterwards.
  std::uint64_t digest() const;

 private:
  std::uint64_t acc_[4];
  std::uint64_t total_ = 0;
  unsigned char buf_[32];
  std::size_t buffered_ = 0;
};

}  // namespace harmonia
