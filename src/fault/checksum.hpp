// CRC32 integrity checks over a HarmoniaIndex's device image.
//
// Detection layer of the fault framework: right after a commit the host
// tree is exactly what the image must hold, so the expected checksum of
// every image region (key region, prefix-sum array as served through its
// const/global routing, value region) can be computed host-side and
// compared against what actually sits in simulated device memory. A
// resync that was corrupted in flight (FaultKind::kResyncCorruption) is
// caught here — before any query is served from the damaged image — and
// answered with a re-image, never with a wrong result.
#pragma once

#include <cstddef>
#include <cstdint>

#include "harmonia/index.hpp"

namespace harmonia::fault {

/// Table-driven CRC32 (IEEE 802.3 polynomial, reflected), eight bytes
/// per step (slice-by-8).
/// `seed` chains incremental computations: crc32(b, crc32(a)) ==
/// crc32(a+b).
std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed = 0);

struct ImageChecksums {
  std::uint32_t keys = 0;
  /// Prefix-sum array as the kernel reads it: constant segment for the
  /// top `ps_const_count` nodes, global memory beyond.
  std::uint32_t prefix_sum = 0;
  std::uint32_t values = 0;

  bool operator==(const ImageChecksums&) const = default;
};

/// Checksums of the authoritative host-side tree regions.
ImageChecksums host_checksums(const HarmoniaTree& tree);

/// Checksums of what the simulated device actually holds for `index`'s
/// image (reads device memory; no cycle cost is charged — the audit
/// models a host-side DMA readback validation).
ImageChecksums device_checksums(const HarmoniaIndex& index);

/// True when the device image matches the host tree byte-for-byte: an
/// audit of a fresh commit or re-image (a staged host tree leads it).
inline bool verify_image(const HarmoniaIndex& index) {
  return host_checksums(index.tree()) == device_checksums(index);
}

}  // namespace harmonia::fault
