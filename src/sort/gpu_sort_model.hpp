// Cost model for the on-GPU radix sort feeding PSA, plus Equation 2.
//
// The paper uses CUB's GPU radix sort; we do not have a GPU, so the sort
// itself runs on the host (sort/radix_sort.hpp) while its *simulated GPU
// cost* is charged by this model: a bit-wise radix sort moves every record
// once per digit pass, so its time is proportional to the number of sorted
// bits (§4.1.2) and bounded by DRAM bandwidth — which is exactly how a
// tuned GPU radix sort behaves.
#pragma once

#include <cstdint>

#include "gpusim/device_spec.hpp"

namespace harmonia::sort {

/// Equation 2: N = B - log2(2^B / T * K) = log2(T) - log2(K).
/// B = bits per key, T = tree size (keys), K = keys per cache line.
/// Returns the number of most-significant bits PSA should sort on
/// (0 if the line range already covers the whole key range).
unsigned psa_bits(unsigned key_bits, std::uint64_t tree_size, unsigned keys_per_line);

/// Simulated GPU cycles to radix-sort `n` (key, payload) pairs on
/// `num_bits` bits. Each 8-bit digit pass reads and writes all keys and
/// payloads (4 streams of 8 B per element) at DRAM bandwidth, plus a
/// histogram pass overhead.
double gpu_radix_sort_cycles(const gpusim::DeviceSpec& spec, std::uint64_t n,
                             unsigned num_bits, bool with_payload = true);

}  // namespace harmonia::sort
