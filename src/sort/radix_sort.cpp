#include "sort/radix_sort.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/expect.hpp"
#include "gpusim/host_pool.hpp"

namespace harmonia::sort {

namespace {

/// The cost model's digit (radix_passes).
constexpr unsigned kModelDigitBits = 8;
/// The host sort's widest digit: a window is split into the fewest passes
/// of at most this many bits, as evenly as possible (Equation 2's 18 bits
/// are two 9-bit passes).
constexpr unsigned kMaxDigitBits = 10;

/// A pass's payload source: the key's index, or an array.
struct IndexPayload {
  std::uint64_t operator()(std::size_t i) const { return i; }
};
struct ArrayPayload {
  const std::uint64_t* data;
  std::uint64_t operator()(std::size_t i) const { return data[i]; }
};

/// One sort's chunking: `chunks` contiguous input ranges, run on the
/// lease's threads, and their per-digit counts.
class Chunks {
 public:
  Chunks(std::size_t n, unsigned chunks, gpusim::PoolLease& lease)
      : n_(n), chunks_(chunks), lease_(lease), counts_(chunks << kMaxDigitBits) {}

  /// One stable pass on digit bits [shift, shift + width): counts each
  /// chunk's digits, turns the counts into each chunk's first output slot
  /// per digit (digit-major, then chunk order), and scatters each chunk in
  /// input order.
  template <class Payload>
  void pass(const std::uint64_t* keys, Payload payload, std::uint64_t* keys_out,
            std::uint64_t* payload_out, unsigned shift, unsigned width) {
    const std::size_t buckets = std::size_t{1} << width;
    // The loops work on locals: a store through a std::uint64_t or
    // std::size_t pointer could otherwise alias the bounds and the mask.
    lease_.run(chunks_, [&](unsigned c) {
      const std::uint64_t* in = keys;
      const unsigned sh = shift;
      const std::uint64_t mask = buckets - 1;
      std::size_t* count = row(c);
      std::fill_n(count, buckets, 0);
      for (std::size_t i = begin(c), end = begin(c + 1); i < end; ++i) {
        ++count[(in[i] >> sh) & mask];
      }
    });
    std::size_t sum = 0;
    for (std::size_t d = 0; d < buckets; ++d) {
      for (unsigned c = 0; c < chunks_; ++c) {
        const std::size_t next = sum + row(c)[d];
        row(c)[d] = sum;
        sum = next;
      }
    }
    lease_.run(chunks_, [&](unsigned c) {
      const std::uint64_t* in = keys;
      std::uint64_t* out = keys_out;
      std::uint64_t* out_payload = payload_out;
      const Payload in_payload = payload;
      const unsigned sh = shift;
      const std::uint64_t mask = buckets - 1;
      std::size_t* next = row(c);
      for (std::size_t i = begin(c), end = begin(c + 1); i < end; ++i) {
        const std::size_t dst = next[(in[i] >> sh) & mask]++;
        out[dst] = in[i];
        out_payload[dst] = in_payload(i);
      }
    });
  }

 private:
  std::size_t begin(unsigned c) const { return n_ * c / chunks_; }
  std::size_t* row(unsigned c) { return &counts_[std::size_t{c} << kMaxDigitBits]; }

  std::size_t n_;
  unsigned chunks_;
  gpusim::PoolLease& lease_;
  std::vector<std::size_t> counts_;  // kMaxDigitBits-wide rows, one per chunk
};

/// Stable sort of `keys` (n of them, with `payload`) by the window into
/// keys_out and payload_out. The outputs must not overlap the inputs.
/// num_bits >= 1.
template <class Payload>
void sort_into(const std::uint64_t* keys, Payload payload, std::uint64_t* keys_out,
               std::uint64_t* payload_out, std::size_t n, unsigned lo_bit, unsigned num_bits,
               unsigned chunks) {
  gpusim::PoolLease lease(n, kPoolMinKeys);
  if (chunks == 0) chunks = lease.threads();
  Chunks chunked(n, chunks, lease);

  const unsigned passes = (num_bits + kMaxDigitBits - 1) / kMaxDigitBits;
  // Passes alternate between the outputs and one temporary pair, ending in
  // the outputs; the first reads the input.
  std::vector<std::uint64_t> keys_tmp, payload_tmp;
  if (passes > 1) {
    keys_tmp.resize(n);
    payload_tmp.resize(n);
  }
  unsigned shift = lo_bit;
  for (unsigned p = 0; p < passes; ++p) {
    const unsigned width = num_bits / passes + (p < num_bits % passes ? 1u : 0u);
    const bool to_out = (passes - 1 - p) % 2 == 0;
    std::uint64_t* dst_keys = to_out ? keys_out : keys_tmp.data();
    std::uint64_t* dst_payload = to_out ? payload_out : payload_tmp.data();
    if (p == 0) {
      chunked.pass(keys, payload, dst_keys, dst_payload, shift, width);
    } else {
      // The previous pass wrote the other buffer pair.
      const std::uint64_t* src_keys = to_out ? keys_tmp.data() : keys_out;
      const std::uint64_t* src_payload = to_out ? payload_tmp.data() : payload_out;
      chunked.pass(src_keys, ArrayPayload{src_payload}, dst_keys, dst_payload, shift, width);
    }
    shift += width;
  }
}

void check_window(unsigned lo_bit, unsigned num_bits) {
  HARMONIA_CHECK_MSG(lo_bit <= 64 && num_bits <= 64 - lo_bit,
                     "bit window [" << lo_bit << ", " << lo_bit << " + " << num_bits
                                    << ") exceeds 64 bits");
}

}  // namespace

void radix_sort_pairs_bits(std::span<std::uint64_t> keys, std::span<std::uint64_t> payload,
                           unsigned lo_bit, unsigned num_bits, unsigned chunks) {
  check_window(lo_bit, num_bits);
  HARMONIA_CHECK(payload.size() == keys.size());
  if (num_bits == 0 || keys.size() < 2) return;
  const std::vector<std::uint64_t> in_keys(keys.begin(), keys.end());
  const std::vector<std::uint64_t> in_payload(payload.begin(), payload.end());
  sort_into(in_keys.data(), ArrayPayload{in_payload.data()}, keys.data(), payload.data(),
            keys.size(), lo_bit, num_bits, chunks);
}

void radix_sort_indexed_bits(std::span<const std::uint64_t> keys,
                             std::span<std::uint64_t> keys_out,
                             std::span<std::uint64_t> index_out, unsigned lo_bit,
                             unsigned num_bits, unsigned chunks) {
  check_window(lo_bit, num_bits);
  HARMONIA_CHECK(keys_out.size() == keys.size() && index_out.size() == keys.size());
  if (num_bits == 0 || keys.size() < 2) {
    std::copy(keys.begin(), keys.end(), keys_out.begin());
    std::iota(index_out.begin(), index_out.end(), std::uint64_t{0});
    return;
  }
  sort_into(keys.data(), IndexPayload{}, keys_out.data(), index_out.data(), keys.size(), lo_bit,
            num_bits, chunks);
}

unsigned radix_passes(unsigned num_bits) {
  return (num_bits + kModelDigitBits - 1) / kModelDigitBits;
}

}  // namespace harmonia::sort
