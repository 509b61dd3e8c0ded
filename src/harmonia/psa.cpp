#include "harmonia/psa.hpp"

#include "common/expect.hpp"
#include "gpusim/host_pool.hpp"
#include "sort/gpu_sort_model.hpp"
#include "sort/radix_sort.hpp"

namespace harmonia {

unsigned psa_equation2_bits(std::uint64_t tree_size, const gpusim::DeviceSpec& spec) {
  return sort::psa_bits(64, tree_size, spec.line_bytes / static_cast<unsigned>(sizeof(Key)));
}

PsaPlan psa_prepare(std::span<const Key> batch, std::uint64_t tree_size,
                    const gpusim::DeviceSpec& spec, PsaMode mode, unsigned override_bits) {
  // Keys are 64-bit: a larger override would underflow `lo_bit` below and
  // hand radix_sort_pairs_bits a shift window past the word (the unsigned
  // wrap even defeats that function's own lo_bit + num_bits <= 64 check).
  HARMONIA_CHECK_MSG(override_bits <= 64,
                     "override_bits must lie in [0, 64], got " << override_bits);
  PsaPlan plan;
  if (mode == PsaMode::kPartial && batch.size() >= 2) {
    // 0 when one line covers the range: the batch then keeps its order.
    plan.sorted_bits =
        override_bits != 0 ? override_bits : psa_equation2_bits(tree_size, spec);
  }

  // The sort reads the batch and writes the plan; a sort of no bits is
  // the identity.
  plan.queries.resize(batch.size());
  plan.permutation.resize(batch.size());
  sort::radix_sort_indexed_bits(batch, plan.queries, plan.permutation, 64 - plan.sorted_bits,
                                plan.sorted_bits);
  if (plan.sorted_bits != 0) {
    plan.sort_cycles = sort::gpu_radix_sort_cycles(spec, batch.size(), plan.sorted_bits,
                                                   /*with_payload=*/true);
  }
  return plan;
}

void psa_restore(const PsaPlan& plan, std::span<const Value> issue_order_results,
                 std::span<Value> arrival_order_out) {
  HARMONIA_CHECK(issue_order_results.size() == plan.permutation.size());
  HARMONIA_CHECK(arrival_order_out.size() == plan.permutation.size());
  // The permutation is a bijection, so chunks write disjoint slots.
  const std::size_t n = plan.permutation.size();
  gpusim::PoolLease lease(n, sort::kPoolMinKeys);
  const unsigned chunks = lease.threads();
  lease.run(chunks, [&](unsigned c) {
    for (std::size_t i = n * c / chunks; i < n * (c + 1) / chunks; ++i) {
      arrival_order_out[plan.permutation[i]] = issue_order_results[i];
    }
  });
}

}  // namespace harmonia
