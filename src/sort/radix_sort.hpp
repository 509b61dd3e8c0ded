// LSD radix sort over a configurable bit window.
//
// PSA (§4.1.2) sorts query batches on only their most significant N bits:
// for bit-wise sorts the run time is proportional to the number of sorted
// bits, so a partial sort costs N/64 of a full sort while still making
// warp-adjacent queries share tree-traversal prefixes. Sorting the window
// [lo_bit, lo_bit+num_bits) with a stable LSD pass sequence yields exactly
// the paper's partially-sorted order (ties keep input order).
//
// Every pass is chunked, as a GPU radix sort's thread blocks are: each
// chunk of the input counts its digits, one prefix over (digit, chunk)
// gives each chunk its output offsets, and each chunk then scatters its
// keys in input order. The result is the stable order whatever the chunk
// count, so a large sort runs its chunks on gpusim's host pool
// (gpusim/host_pool.hpp) and a small one runs as one chunk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace harmonia::sort {

/// The smallest sort whose chunks run on the host pool (if it can be
/// leased); a smaller one, or one made while the pool is held, runs as
/// one chunk on the calling thread.
inline constexpr std::size_t kPoolMinKeys = std::size_t{1} << 16;

/// Stable in-place sort of `keys` by the bit window [lo_bit, lo_bit +
/// num_bits), carrying a parallel payload array (query ids, values)
/// through the same permutation. num_bits == 0 is a no-op; lo_bit +
/// num_bits must be <= 64. `chunks` fixes the chunk count (0: one per
/// host-pool thread, see kPoolMinKeys); any count gives the same result.
void radix_sort_pairs_bits(std::span<std::uint64_t> keys, std::span<std::uint64_t> payload,
                           unsigned lo_bit, unsigned num_bits, unsigned chunks = 0);

/// Out-of-place stable sort of `keys` by the window, with each key's
/// index as its payload: writes the sorted keys to `keys_out` and their
/// input indices to `index_out` (PSA's issue order and permutation).
/// num_bits == 0 copies the keys and writes the identity. `chunks` as
/// for radix_sort_pairs_bits. The outputs must not overlap `keys`.
void radix_sort_indexed_bits(std::span<const std::uint64_t> keys,
                             std::span<std::uint64_t> keys_out,
                             std::span<std::uint64_t> index_out, unsigned lo_bit,
                             unsigned num_bits, unsigned chunks = 0);

/// Number of 8-bit digit passes a bit-window sort needs (the quantity the
/// GPU sort cost model charges for).
unsigned radix_passes(unsigned num_bits);

}  // namespace harmonia::sort
