// Microbenchmarks of the radix sort used by PSA: cost scales with the
// number of sorted bits (the property Equation 2 exploits).
#include <benchmark/benchmark.h>

#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/device_spec.hpp"
#include "harmonia/psa.hpp"
#include "sort/radix_sort.hpp"

namespace {

using namespace harmonia;

std::vector<std::uint64_t> random_keys(std::size_t n) {
  Xoshiro256 rng(7);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) k = rng.next();
  return keys;
}

void BM_RadixSortBits(benchmark::State& state) {
  const auto keys = random_keys(1 << 16);
  std::vector<std::uint64_t> sorted(keys.size()), index(keys.size());
  const auto bits = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    sort::radix_sort_indexed_bits(keys, sorted, index, 64 - bits, bits);
    benchmark::DoNotOptimize(sorted.data());
  }
  state.SetItemsProcessed(state.iterations() * (1 << 16));
}
BENCHMARK(BM_RadixSortBits)->Arg(8)->Arg(19)->Arg(32)->Arg(64);

void BM_RadixSortPairs(benchmark::State& state) {
  const auto base = random_keys(1 << 16);
  std::vector<std::uint64_t> payload_base(base.size());
  std::iota(payload_base.begin(), payload_base.end(), 0);
  for (auto _ : state) {
    auto keys = base;
    auto payload = payload_base;
    sort::radix_sort_pairs_bits(keys, payload, 45, 19);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(state.iterations() * (1 << 16));
}
BENCHMARK(BM_RadixSortPairs);

// PSA's whole host step at the paper's batch size: a 2^20-query batch
// sorted on Equation 2's bits for a 2^22-key tree (18 with 128-byte
// lines), into the plan's queries and permutation. Wall time, since the
// sort runs on the host pool when it can lease it.
void BM_PsaPrepare(benchmark::State& state) {
  const auto batch = random_keys(1 << 20);
  const gpusim::DeviceSpec spec;
  for (auto _ : state) {
    const PsaPlan plan = psa_prepare(batch, std::uint64_t{1} << 22, spec, PsaMode::kPartial);
    benchmark::DoNotOptimize(plan.queries.data());
  }
  state.SetItemsProcessed(state.iterations() * (1 << 20));
}
BENCHMARK(BM_PsaPrepare)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
