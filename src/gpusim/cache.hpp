// Set-associative LRU cache model, keyed by line address.
//
// Used for the L2 (device-wide), the per-SM read-only data cache, and the
// per-SM constant cache. Only tags are tracked — data always lives in
// Memory — so a Cache is cheap enough to instantiate per SM. Each set is
// its ways' tags in recency order, most recently used first: a hit moves
// its tag to the front, a miss shifts the set down one way (dropping the
// last tag, the LRU line or an invalid way) and inserts at the front.
#pragma once

#include <cstdint>
#include <vector>

namespace harmonia::gpusim {

class Cache {
 public:
  /// `bytes` is the capacity; `line_bytes` the fill granularity;
  /// `ways` the associativity. bytes must be a multiple of line_bytes*ways.
  Cache(std::uint64_t bytes, unsigned line_bytes, unsigned ways);

  /// Probes and fills: returns true on hit. A miss evicts LRU and inserts.
  /// The cache keeps no counters: Device::probe books every hit and miss
  /// into KernelMetrics.
  bool access(std::uint64_t line_addr);

  /// Probe without fill (used by tests).
  bool contains(std::uint64_t line_addr) const;

  void flush();

  std::uint64_t capacity_bytes() const { return capacity_bytes_; }

 private:
  static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};

  std::size_t set_index(std::uint64_t line_addr) const;

  unsigned line_bytes_;
  unsigned ways_;
  std::size_t num_sets_;
  std::uint64_t capacity_bytes_;
  std::vector<std::uint64_t> tags_;  // num_sets_ * ways_, row-major by set, MRU first
};

}  // namespace harmonia::gpusim
