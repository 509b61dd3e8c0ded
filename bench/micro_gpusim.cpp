// Microbenchmarks of the GPU-simulator primitives (host cost of the
// simulation itself, not simulated GPU time): coalescer, cache probes,
// warp gathers, kernel launch (empty and gather-plus-compute kernels).
#include <benchmark/benchmark.h>

#include <array>

#include "common/rng.hpp"
#include "gpusim/cache.hpp"
#include "gpusim/coalescer.hpp"
#include "gpusim/device.hpp"

namespace {

using namespace harmonia;
using namespace harmonia::gpusim;

void BM_CoalesceSequential(benchmark::State& state) {
  std::array<std::uint64_t, 32> addrs{};
  for (unsigned i = 0; i < 32; ++i) addrs[i] = 4096 + i * 8;
  for (auto _ : state) {
    const LineSet lines = coalesce(addrs, full_mask(32), 8, 128);
    benchmark::DoNotOptimize(lines.size());
    benchmark::DoNotOptimize(lines[0]);
  }
}
BENCHMARK(BM_CoalesceSequential);

void BM_CoalesceScattered(benchmark::State& state) {
  Xoshiro256 rng(1);
  std::array<std::uint64_t, 32> addrs{};
  for (auto& a : addrs) a = rng.next() % (1 << 28);
  for (auto _ : state) {
    const LineSet lines = coalesce(addrs, full_mask(32), 8, 128);
    benchmark::DoNotOptimize(lines.size());
    benchmark::DoNotOptimize(lines[0]);
  }
}
BENCHMARK(BM_CoalesceScattered);

void BM_CacheAccessHit(benchmark::State& state) {
  Cache cache(1 << 20, 128, 8);
  for (std::uint64_t line = 0; line < 64; ++line) cache.access(line);
  std::uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(line));
    line = (line + 1) % 64;
  }
}
BENCHMARK(BM_CacheAccessHit);

void BM_CacheAccessMissStream(benchmark::State& state) {
  Cache cache(1 << 20, 128, 8);
  std::uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(line));
    line += 9973;  // always a fresh line
  }
}
BENCHMARK(BM_CacheAccessMissStream);

/// Lane address patterns for BM_WarpGather (u64 loads, 128 B lines).
enum GatherPattern : std::int64_t {
  kConsecutive,  ///< lane i reads element offset+i: 2 lines
  kStrided,      ///< lane i reads element offset+64i: 32 distinct lines
  kScattered,    ///< random elements: 32 distinct lines, no order
  kStraddling,   ///< every lane's 8 B crosses a line boundary: 64 lines
};

void BM_WarpGather(benchmark::State& state) {
  auto spec = titan_v();
  spec.num_sms = 4;
  spec.global_mem_bytes = 64 << 20;
  Device dev(spec);
  constexpr std::uint64_t kElems = 1 << 20;
  auto data = dev.memory().malloc<std::uint64_t>(kElems + 64);
  const auto pattern = state.range(0);
  Xoshiro256 rng(1);
  std::uint64_t offset = 0;
  for (auto _ : state) {
    std::array<std::uint64_t, 32> addrs{};
    for (std::uint64_t i = 0; i < 32; ++i) {
      switch (pattern) {
        case kConsecutive:
          addrs[i] = data.element_addr((offset + i) % kElems);
          break;
        case kStrided:
          addrs[i] = data.element_addr((offset + i * 64) % kElems);
          break;
        case kScattered:
          addrs[i] = data.element_addr(rng.next_below(kElems));
          break;
        default: {  // the last 4 bytes of every other line
          const std::uint64_t line = (offset + 2 * i) % (kElems * 8 / 128);
          addrs[i] = data.addr + line * 128 + 124;
        }
      }
    }
    dev.launch(1, [&](WarpCtx& w) {
      std::array<std::uint64_t, 32> out{};
      w.gather<std::uint64_t>(full_mask(32), addrs, out);
      benchmark::DoNotOptimize(out);
    });
    offset += 13;
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_WarpGather)
    ->ArgName("pattern")
    ->Arg(kConsecutive)
    ->Arg(kStrided)
    ->Arg(kScattered)
    ->Arg(kStraddling);

void BM_KernelLaunch(benchmark::State& state) {
  auto spec = titan_v();
  spec.num_sms = 8;
  spec.global_mem_bytes = 16 << 20;
  Device dev(spec);
  const auto warps = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    const auto metrics = dev.launch(warps, [](WarpCtx& w) { w.compute(full_mask(32)); });
    benchmark::DoNotOptimize(metrics);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(warps));
}
BENCHMARK(BM_KernelLaunch)->Arg(64)->Arg(1024);

/// A launch of `warps` warps, each doing 8 rounds of a 32-lane gather of
/// scattered u64s plus a compute step: how small launches (64 warps, a
/// serving batch) pay for the launch machinery and how big ones scale
/// over host threads.
void BM_KernelLaunchGather(benchmark::State& state) {
  auto spec = titan_v();
  spec.num_sms = 8;
  spec.global_mem_bytes = 64 << 20;
  Device dev(spec);
  constexpr std::uint64_t kElems = 1 << 20;
  auto data = dev.memory().malloc<std::uint64_t>(kElems);
  const auto warps = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    const auto metrics = dev.launch(warps, [&](WarpCtx& w) {
      std::array<std::uint64_t, 32> addrs{};
      std::array<std::uint64_t, 32> out{};
      std::uint64_t h = w.warp_id() * 0x9e3779b97f4a7c15ULL;
      for (unsigned round = 0; round < 8; ++round) {
        for (auto& a : addrs) {
          h = h * 6364136223846793005ULL + 1442695040888963407ULL;
          a = data.element_addr((h >> 20) % kElems);
        }
        w.gather<std::uint64_t>(full_mask(32), addrs, out);
        w.compute(full_mask(32));
      }
      benchmark::DoNotOptimize(out);
    });
    benchmark::DoNotOptimize(metrics);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(warps));
}
BENCHMARK(BM_KernelLaunchGather)->Arg(64)->Arg(2048)->Arg(65536)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
