#include "sort/gpu_sort_model.hpp"

#include <bit>
#include <cmath>

#include "common/expect.hpp"
#include "sort/radix_sort.hpp"

namespace harmonia::sort {

unsigned psa_bits(unsigned key_bits, std::uint64_t tree_size, unsigned keys_per_line) {
  HARMONIA_CHECK(key_bits >= 1 && key_bits <= 64);
  HARMONIA_CHECK(tree_size > 0);
  HARMONIA_CHECK(keys_per_line > 0);
  // N = B - log2(2^B / T * K). With log2: N = log2(T) - log2(K), rounded
  // to the nearest integer (std::lround, halves away from zero) and
  // clamped to [0, key_bits]; it is 0 when T <= K.
  const double log_t = std::log2(static_cast<double>(tree_size));
  const double log_k = std::log2(static_cast<double>(keys_per_line));
  const double n = log_t - log_k;
  if (n <= 0.0) return 0;
  const auto bits = static_cast<unsigned>(std::lround(n));
  return bits > key_bits ? key_bits : bits;
}

double gpu_radix_sort_cycles(const gpusim::DeviceSpec& spec, std::uint64_t n,
                             unsigned num_bits, bool with_payload) {
  if (n == 0 || num_bits == 0) return 0.0;
  const unsigned passes = radix_passes(num_bits);
  // Per pass: scatter read + write of keys (and payloads), plus one
  // histogram read of the keys. All streams are sequential/coalesced.
  const double key_bytes = static_cast<double>(n) * 8.0;
  const double stream_bytes_per_pass =
      key_bytes * (with_payload ? 4.0 : 2.0)  // rd+wr keys (+ rd+wr payloads)
      + key_bytes;                            // histogram pre-pass
  const double bytes_per_cycle =
      static_cast<double>(spec.line_bytes) / spec.dram_cycles_per_txn;
  const double cycles_per_pass = stream_bytes_per_pass / bytes_per_cycle;
  return static_cast<double>(passes) * (cycles_per_pass + spec.launch_overhead_cycles);
}

}  // namespace harmonia::sort
