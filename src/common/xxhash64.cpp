#include "common/xxhash64.hpp"

#include <bit>
#include <cstring>

namespace harmonia {

namespace {

static_assert(std::endian::native == std::endian::little,
              "XXH64 reads little-endian words; add byte swapping for this target");

constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

std::uint64_t read64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint32_t read32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t mix_lane(std::uint64_t acc, std::uint64_t lane) {
  acc += lane * kP2;
  return std::rotl(acc, 31) * kP1;
}

std::uint64_t merge_round(std::uint64_t h, std::uint64_t acc) {
  h ^= mix_lane(0, acc);
  return h * kP1 + kP4;
}

/// Folds every whole 32-byte stripe of [p, p + n) into `acc`; returns
/// the bytes consumed.
std::size_t consume_stripes(std::uint64_t (&acc)[4], const unsigned char* p, std::size_t n) {
  std::uint64_t a0 = acc[0], a1 = acc[1], a2 = acc[2], a3 = acc[3];
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    a0 = mix_lane(a0, read64(p + i));
    a1 = mix_lane(a1, read64(p + i + 8));
    a2 = mix_lane(a2, read64(p + i + 16));
    a3 = mix_lane(a3, read64(p + i + 24));
  }
  acc[0] = a0, acc[1] = a1, acc[2] = a2, acc[3] = a3;
  return i;
}

}  // namespace

Xxh64::Xxh64() : acc_{kP1 + kP2, kP2, 0, 0 - kP1} {}

void Xxh64::update(const void* data, std::size_t n) {
  if (n == 0) return;
  const auto* p = static_cast<const unsigned char*>(data);
  total_ += n;
  if (buffered_ + n < sizeof buf_) {
    std::memcpy(buf_ + buffered_, p, n);
    buffered_ += n;
    return;
  }
  if (buffered_ > 0) {  // complete the pending stripe first
    const std::size_t fill = sizeof buf_ - buffered_;
    std::memcpy(buf_ + buffered_, p, fill);
    consume_stripes(acc_, buf_, sizeof buf_);
    p += fill;
    n -= fill;
    buffered_ = 0;
  }
  const std::size_t used = consume_stripes(acc_, p, n);
  buffered_ = n - used;
  std::memcpy(buf_, p + used, buffered_);
}

std::uint64_t Xxh64::digest() const {
  std::uint64_t h;
  if (total_ >= 32) {
    h = std::rotl(acc_[0], 1) + std::rotl(acc_[1], 7) + std::rotl(acc_[2], 12) +
        std::rotl(acc_[3], 18);
    for (const std::uint64_t a : acc_) h = merge_round(h, a);
  } else {
    h = kP5;
  }
  h += total_;

  std::size_t i = 0;
  for (; i + 8 <= buffered_; i += 8) {
    h ^= mix_lane(0, read64(buf_ + i));
    h = std::rotl(h, 27) * kP1 + kP4;
  }
  if (i + 4 <= buffered_) {
    h ^= read32(buf_ + i) * kP1;
    h = std::rotl(h, 23) * kP2 + kP3;
    i += 4;
  }
  for (; i < buffered_; ++i) {
    h ^= buf_[i] * kP5;
    h = std::rotl(h, 11) * kP1;
  }

  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

}  // namespace harmonia
