// Microbenchmarks of the GPU-simulator primitives (host cost of the
// simulation itself, not simulated GPU time): coalescer, cache probes,
// warp gathers, kernel launch (empty and gather-plus-compute kernels),
// device memory (image resync, per-batch buffers after an image), and the
// serving search path (PSA sort plus the search kernel on one batch).
#include <benchmark/benchmark.h>

#include <array>
#include <vector>

#include "btree/btree.hpp"
#include "common/rng.hpp"
#include "gpusim/cache.hpp"
#include "gpusim/coalescer.hpp"
#include "gpusim/device.hpp"
#include "harmonia/device_image.hpp"
#include "harmonia/psa.hpp"
#include "harmonia/search.hpp"
#include "harmonia/tree.hpp"
#include "queries/workload.hpp"

namespace {

using namespace harmonia;
using namespace harmonia::gpusim;

void BM_CoalesceSequential(benchmark::State& state) {
  const std::array<LaneRow, 1> row{{{4096, 0, 32}}};
  for (auto _ : state) {
    const LineSet lines = coalesce(row, 8, 128);
    benchmark::DoNotOptimize(lines.size());
    benchmark::DoNotOptimize(lines[0]);
  }
}
BENCHMARK(BM_CoalesceSequential);

void BM_CoalesceScattered(benchmark::State& state) {
  Xoshiro256 rng(1);
  std::array<LaneRow, 32> rows{};  // one-lane rows: a scattered access
  for (unsigned i = 0; i < 32; ++i) rows[i] = {rng.next() % (1 << 28), i, 1};
  for (auto _ : state) {
    const LineSet lines = coalesce(rows, 8, 128);
    benchmark::DoNotOptimize(lines.size());
    benchmark::DoNotOptimize(lines[0]);
  }
}
BENCHMARK(BM_CoalesceScattered);

/// A group-size-1 chunk step of a PSA-sorted warp: 32 one-lane groups
/// whose nodes are range(0) neighbouring nodes, each run of groups on one
/// node a broadcast row of its chunk's key.
void BM_CoalesceBroadcast(benchmark::State& state) {
  const auto nodes = static_cast<unsigned>(state.range(0));
  std::array<LaneRow, 32> rows{};
  for (unsigned i = 0; i < nodes; ++i) {
    const unsigned first = 32 * i / nodes;
    const unsigned count = 32 * (i + 1) / nodes - first;
    rows[i] = {4096 + i * 63 * 8 + 40, first, count, count > 1};
  }
  const std::span<const LaneRow> access(rows.data(), nodes);
  for (auto _ : state) {
    const LineSet lines = coalesce(access, 8, 128);
    benchmark::DoNotOptimize(lines.size());
    benchmark::DoNotOptimize(lines[0]);
  }
}
BENCHMARK(BM_CoalesceBroadcast)->ArgName("nodes")->Arg(1)->Arg(3);

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
  kConsecutive,  ///< one 32-lane row from element offset: 2 or 3 lines
  kStrided,      ///< one-lane rows, lane i at element offset+64i: 32 lines
  kScattered,    ///< one-lane rows at random elements: 32 lines, no order
  kStraddling,   ///< one-lane rows, each 8 B crossing a line boundary: 64 lines
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
    std::array<LaneRow, 32> rows{};
    unsigned num_rows = 32;
    if (pattern == kConsecutive) {
      rows[0] = {data.element_addr(offset % kElems), 0, 32};
      num_rows = 1;
    }
    for (unsigned i = 0; i < num_rows && pattern != kConsecutive; ++i) {
      std::uint64_t addr = 0;
      switch (pattern) {
        case kStrided:
          addr = data.element_addr((offset + i * 64) % kElems);
          break;
        case kScattered:
          addr = data.element_addr(rng.next_below(kElems));
          break;
        default: {  // the last 4 bytes of every other line
          const std::uint64_t line = (offset + 2 * i) % (kElems * 8 / 128);
          addr = data.addr + line * 128 + 124;
        }
      }
      rows[i] = {addr, i, 1};
    }
    dev.launch(1, [&](WarpCtx& w) {
      std::array<std::uint64_t, 32> out{};
      w.gather<std::uint64_t>(std::span<const LaneRow>(rows.data(), num_rows), out);
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

// Launch overhead over near-empty warps (one compute step each). 63
// warps, below kPoolMinWarps (64), times the launching-thread loop; 64
// and 1024 time a pooled launch when the affinity mask holds more than
// one CPU (under `taskset -c 0` they time that loop too).
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
BENCHMARK(BM_KernelLaunch)->Arg(63)->Arg(64)->Arg(1024);

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
      std::array<LaneRow, 32> rows{};
      std::array<std::uint64_t, 32> out{};
      std::uint64_t h = w.warp_id() * 0x9e3779b97f4a7c15ULL;
      for (unsigned round = 0; round < 8; ++round) {
        for (unsigned i = 0; i < 32; ++i) {
          h = h * 6364136223846793005ULL + 1442695040888963407ULL;
          rows[i] = {data.element_addr((h >> 20) % kElems), i, 1};
        }
        w.gather<std::uint64_t>(rows, out);
        w.compute(full_mask(32));
      }
      benchmark::DoNotOptimize(out);
    });
    benchmark::DoNotOptimize(metrics);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(warps));
}
BENCHMARK(BM_KernelLaunchGather)->Arg(64)->Arg(2048)->Arg(65536)->UseRealTime();

/// The 2^20-key, fanout-64 tree of the memory benches.
const HarmoniaTree& image_tree() {
  static const HarmoniaTree tree =
      HarmoniaTree::build(btree::entries_for(queries::make_tree_keys(1 << 20, 7)), 64);
  return tree;
}

/// Device-image resync as an epoch commit does it: release everything,
/// then upload the whole tree again.
void BM_ImageResync(benchmark::State& state) {
  Device dev(titan_v());
  const HarmoniaTree& tree = image_tree();
  HarmoniaDeviceImage::upload(dev, tree);
  const auto image_bytes = static_cast<std::int64_t>(dev.memory().global_used());
  for (auto _ : state) {
    dev.memory().free_all();
    const auto image = HarmoniaDeviceImage::upload(dev, tree);
    benchmark::DoNotOptimize(image.num_nodes);
  }
  state.SetBytesProcessed(state.iterations() * image_bytes);
}
BENCHMARK(BM_ImageResync)->Unit(benchmark::kMillisecond);

/// 512 query batches after a fresh image: each batch allocates its 2048
/// keys and results and uploads the keys, the way HarmoniaIndex::search
/// does. Items are batches.
void BM_BatchMallocAfterImage(benchmark::State& state) {
  constexpr std::uint64_t kBatch = 2048;
  constexpr int kBatches = 512;
  Device dev(titan_v());
  const HarmoniaTree& tree = image_tree();
  const std::vector<Key> keys(kBatch, 1);
  auto& mem = dev.memory();
  for (auto _ : state) {
    state.PauseTiming();
    mem.free_all();
    HarmoniaDeviceImage::upload(dev, tree);
    state.ResumeTiming();
    for (int b = 0; b < kBatches; ++b) {
      const auto d_keys = mem.malloc<Key>(kBatch);
      mem.copy_to_device(d_keys, std::span<const Key>(keys));
      benchmark::DoNotOptimize(mem.malloc<Value>(kBatch));
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatches);
}
BENCHMARK(BM_BatchMallocAfterImage)->Unit(benchmark::kMillisecond);

/// The serving search path on one device: a 2048-query batch of uniform
/// hits is PSA-sorted (Equation 2's bits) when range(2) is 1, uploaded,
/// and searched with range(1)-lane groups on a 2^range(0)-key, fanout-64
/// tree. Group size 32 is one row per chunk; group size 1 (NTG's pick for
/// batch_lookup) has 63 chunks per node, and a chunk step is one
/// broadcast row per node its sorted warp is on. Unsorted at group size
/// 1, every group is on its own node: 32 one-lane rows per chunk, the
/// worst case. Items are queries.
void BM_SearchServingBatch(benchmark::State& state) {
  constexpr std::size_t kBatch = 2048;
  constexpr std::size_t kPool = 64 * kBatch;
  const auto tree_keys = std::uint64_t{1} << state.range(0);
  Device dev(titan_v());
  const std::vector<Key> keys = queries::make_tree_keys(tree_keys, 7);
  const HarmoniaTree tree = HarmoniaTree::build(btree::entries_for(keys), 64);
  const HarmoniaDeviceImage image = HarmoniaDeviceImage::upload(dev, tree);
  Xoshiro256 rng(3);
  std::vector<Key> pool(kPool);
  for (Key& q : pool) q = keys[rng.next_below(keys.size())];
  auto d_queries = dev.memory().malloc<Key>(kBatch);
  auto d_out = dev.memory().malloc<Value>(kBatch);
  SearchConfig config;
  config.group_size = static_cast<unsigned>(state.range(1));
  std::size_t offset = 0;
  const PsaMode psa = state.range(2) != 0 ? PsaMode::kPartial : PsaMode::kNone;
  for (auto _ : state) {
    const PsaPlan plan = psa_prepare(std::span<const Key>(pool.data() + offset, kBatch),
                                     image.num_keys, dev.spec(), psa);
    dev.memory().copy_to_device(d_queries, std::span<const Key>(plan.queries));
    const SearchStats stats = search_batch(dev, image, d_queries, kBatch, d_out, config);
    benchmark::DoNotOptimize(stats.chunk_steps);
    offset = (offset + kBatch) % kPool;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_SearchServingBatch)
    ->ArgNames({"log2_keys", "group_size", "psa"})
    ->Args({22, 32, 1})
    ->Args({22, 1, 1})
    ->Args({22, 1, 0})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
