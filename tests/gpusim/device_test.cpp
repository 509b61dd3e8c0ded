#include "gpusim/device.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace harmonia::gpusim {
namespace {

DeviceSpec tiny_spec() {
  DeviceSpec spec = titan_v();
  spec.num_sms = 4;
  spec.global_mem_bytes = 16 << 20;
  return spec;
}

TEST(Device, LaunchRunsKernelPerWarp) {
  Device dev(tiny_spec());
  std::atomic<std::uint64_t> ran = 0;  // warps may run on several host threads
  const auto metrics = dev.launch(10, [&](WarpCtx& w) {
    ++ran;
    w.compute(full_mask(w.warp_size()));
  });
  EXPECT_EQ(ran, 10u);
  EXPECT_EQ(metrics.warps, 10u);
  EXPECT_EQ(metrics.steps, 10u);
  EXPECT_EQ(metrics.coherent_steps, 10u);
}

TEST(Device, WarpsRoundRobinAcrossSms) {
  Device dev(tiny_spec());
  std::array<unsigned, 8> sm_of_warp{};
  dev.launch(8, [&](WarpCtx& w) {
    sm_of_warp[w.warp_id()] = w.sm_id();
    w.compute(full_mask(32));
  });
  for (unsigned i = 0; i < 8; ++i) EXPECT_EQ(sm_of_warp[i], i % 4);
}

TEST(Device, PartialMaskStepsAreIncoherent) {
  Device dev(tiny_spec());
  const auto metrics = dev.launch(1, [&](WarpCtx& w) {
    w.compute(full_mask(32));     // coherent
    w.compute(full_mask(16));     // incoherent
    w.compute(lane_bit(0), 2);    // two incoherent steps
  });
  EXPECT_EQ(metrics.steps, 4u);
  EXPECT_EQ(metrics.coherent_steps, 1u);
  EXPECT_NEAR(metrics.warp_coherence(), 0.25, 1e-12);
}

TEST(Device, GatherReadsValuesAndCounts) {
  Device dev(tiny_spec());
  auto& mem = dev.memory();
  auto data = mem.malloc<std::uint64_t>(32);
  std::vector<std::uint64_t> host(32);
  for (std::size_t i = 0; i < 32; ++i) host[i] = i * 7;
  mem.copy_to_device(data, std::span<const std::uint64_t>(host));

  std::array<std::uint64_t, 32> got{};
  const auto metrics = dev.launch(1, [&](WarpCtx& w) {
    const std::array<LaneRow, 1> row{{{data.element_addr(0), 0, 32}}};
    w.gather<std::uint64_t>(row, got);
  });
  for (unsigned i = 0; i < 32; ++i) EXPECT_EQ(got[i], i * 7u);
  EXPECT_EQ(metrics.loads, 1u);
  // 32 consecutive u64 = 256 B = 2 or 3 lines depending on alignment.
  EXPECT_GE(metrics.transactions, 2u);
  EXPECT_LE(metrics.transactions, 3u);
}

TEST(Device, DivergentLoadDetected) {
  Device dev(tiny_spec());
  auto& mem = dev.memory();
  auto data = mem.malloc<std::uint64_t>(1 << 16);
  const auto metrics = dev.launch(1, [&](WarpCtx& w) {
    std::array<LaneRow, 32> rows{};
    for (unsigned i = 0; i < 32; ++i) rows[i] = {data.element_addr(i * 1000), i, 1};
    w.touch(rows, 8);
  });
  EXPECT_EQ(metrics.loads, 1u);
  EXPECT_EQ(metrics.divergent_loads, 1u);
  EXPECT_EQ(metrics.transactions, 32u);
}

TEST(Device, CoalescedLoadNotDivergent) {
  Device dev(tiny_spec());
  auto& mem = dev.memory();
  auto data = mem.malloc<std::uint32_t>(32);
  const auto metrics = dev.launch(1, [&](WarpCtx& w) {
    const std::array<LaneRow, 1> row{{{data.element_addr(0), 0, 32}}};
    w.touch(row, 4);
  });
  EXPECT_EQ(metrics.divergent_loads, 0u);
}

TEST(Device, RepeatedAccessHitsCache) {
  Device dev(tiny_spec());
  auto& mem = dev.memory();
  auto data = mem.malloc<std::uint64_t>(16);
  const auto metrics = dev.launch(1, [&](WarpCtx& w) {
    const std::array<LaneRow, 1> row{{{data.element_addr(0), 0, 16}}};
    w.touch(row, 8);  // cold: DRAM
    w.touch(row, 8);  // warm: read-only cache
  });
  EXPECT_GT(metrics.dram_transactions, 0u);
  EXPECT_GT(metrics.readonly_hits, 0u);
}

TEST(Device, ConstantSpaceUsesConstantCache) {
  Device dev(tiny_spec());
  auto& mem = dev.memory();
  auto data = mem.const_malloc<std::uint32_t>(64);
  const auto metrics = dev.launch(1, [&](WarpCtx& w) {
    const std::array<LaneRow, 1> row{{{data.element_addr(0), 0, 32}}};
    w.touch(row, 4);
    w.touch(row, 4);
  });
  EXPECT_GT(metrics.const_hits, 0u);
  EXPECT_EQ(metrics.readonly_hits, 0u);  // constant space never uses RO cache
}

// A row in the constant segment is read inline, bounded by const_used();
// a row past it throws out of the launch.
TEST(Device, ConstantRowGatherAndOutOfBoundsRow) {
  Device dev(tiny_spec());
  auto& mem = dev.memory();
  auto table = mem.const_malloc<std::uint32_t>(8);
  const std::vector<std::uint32_t> host = {3, 1, 4, 1, 5, 9, 2, 6};
  mem.copy_to_device(table, std::span<const std::uint32_t>(host));
  std::array<std::uint32_t, 32> got{};
  dev.launch(1, [&](WarpCtx& w) {
    const std::array<LaneRow, 1> row{{{table.element_addr(0), 4, 8}}};
    w.gather<std::uint32_t>(row, got);
  });
  for (unsigned i = 0; i < 8; ++i) EXPECT_EQ(got[4 + i], host[i]);
  EXPECT_THROW(dev.launch(1,
                          [&](WarpCtx& w) {
                            const std::array<LaneRow, 1> row{{{table.element_addr(1), 0, 8}}};
                            w.gather<std::uint32_t>(row, got);
                          }),
               ContractViolation);
}

// A broadcast row copies its one element to each of its lanes and costs
// what the same lanes' one-lane rows cost.
TEST(Device, BroadcastGatherEqualsOneLaneRows) {
  Device dev(tiny_spec());
  auto& mem = dev.memory();
  auto data = mem.malloc<std::uint64_t>(64);
  for (unsigned i = 0; i < 64; ++i) mem.write(data.element_addr(i), std::uint64_t{1000 + i});
  const auto run = [&](bool broadcast, std::array<std::uint64_t, 32>& out) {
    dev.flush_caches();
    return dev.launch(1, [&](WarpCtx& w) {
      std::array<LaneRow, 32> rows{};
      unsigned n = 0;
      rows[n++] = {data.element_addr(40), 0, 2};
      if (broadcast) {
        rows[n++] = {data.element_addr(3), 2, 20, true};
      } else {
        for (unsigned lane = 2; lane < 22; ++lane) rows[n++] = {data.element_addr(3), lane, 1};
      }
      w.gather<std::uint64_t>(std::span<const LaneRow>(rows.data(), n), out);
    });
  };
  std::array<std::uint64_t, 32> got{};
  std::array<std::uint64_t, 32> want{};
  const KernelMetrics a = run(true, got);
  const KernelMetrics b = run(false, want);
  EXPECT_EQ(got, want);
  for (unsigned lane = 2; lane < 22; ++lane) EXPECT_EQ(got[lane], 1003u);
  EXPECT_EQ(got[22], 0u);
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.dram_transactions, b.dram_transactions);
  EXPECT_EQ(a.sm_mem_cycles, b.sm_mem_cycles);
}

// A store has no broadcast form: the check is on in every build, before
// anything is written or accounted.
TEST(Device, BroadcastStoreIsRejected) {
  Device dev(tiny_spec());
  auto& mem = dev.memory();
  auto data = mem.malloc<std::uint64_t>(8);
  std::array<std::uint64_t, 32> vals{};
  vals.fill(7);
  EXPECT_THROW(dev.launch(1,
                          [&](WarpCtx& w) {
                            const std::array<LaneRow, 1> row{
                                {{data.element_addr(0), 0, 4, true}}};
                            w.scatter<std::uint64_t>(row, vals);
                          }),
               ContractViolation);
  EXPECT_EQ(mem.read<std::uint64_t>(data.element_addr(0)), 0u);
}

// A broadcast row's one element must lie inside the memory in use, in
// either segment.
TEST(Device, BroadcastGatherOutsideMemoryThrows) {
  Device dev(tiny_spec());
  auto& mem = dev.memory();
  auto data = mem.malloc<std::uint64_t>(8);
  auto table = mem.const_malloc<std::uint32_t>(8);
  std::array<std::uint64_t, 32> got{};
  std::array<std::uint32_t, 32> got32{};
  EXPECT_NO_THROW(dev.launch(1, [&](WarpCtx& w) {
    const std::array<LaneRow, 1> row{{{data.element_addr(7), 0, 32, true}}};
    w.gather<std::uint64_t>(row, got);
  }));
  EXPECT_THROW(dev.launch(1,
                          [&](WarpCtx& w) {
                            const std::array<LaneRow, 1> row{
                                {{mem.global_used(), 0, 2, true}}};
                            w.gather<std::uint64_t>(row, got);
                          }),
               ContractViolation);
  EXPECT_THROW(dev.launch(1,
                          [&](WarpCtx& w) {
                            const std::array<LaneRow, 1> row{
                                {{table.element_addr(8), 0, 3, true}}};
                            w.gather<std::uint32_t>(row, got32);
                          }),
               ContractViolation);
}

// The in-place view is checked like a row: a view past the memory in use
// throws, in either segment.
TEST(Device, WarpViewIsBoundsChecked) {
  Device dev(tiny_spec());
  auto& mem = dev.memory();
  auto data = mem.malloc<std::uint64_t>(8);
  mem.write(data.element_addr(7), std::uint64_t{77});
  auto table = mem.const_malloc<std::uint32_t>(4);
  mem.write(table.element_addr(3), std::uint32_t{33});
  std::uint64_t seen = 0;
  dev.launch(1, [&](WarpCtx& w) {
    seen = w.view<std::uint64_t>(data.element_addr(0), 8)[7] +
           w.view<std::uint32_t>(table.element_addr(0), 4)[3];
  });
  EXPECT_EQ(seen, 110u);
  EXPECT_THROW(
      dev.launch(1, [&](WarpCtx& w) { w.view<std::uint64_t>(data.element_addr(1), 8); }),
      ContractViolation);
  EXPECT_THROW(
      dev.launch(1, [&](WarpCtx& w) { w.view<std::uint32_t>(table.element_addr(1), 4); }),
      ContractViolation);
}

TEST(Device, FlushCachesForcesMisses) {
  Device dev(tiny_spec());
  auto& mem = dev.memory();
  auto data = mem.malloc<std::uint64_t>(16);
  const std::array<LaneRow, 1> row{{{data.element_addr(0), 0, 16}}};

  dev.launch(1, [&](WarpCtx& w) { w.touch(row, 8); });
  dev.flush_caches();
  const auto metrics = dev.launch(1, [&](WarpCtx& w) { w.touch(row, 8); });
  EXPECT_EQ(metrics.readonly_hits, 0u);
  EXPECT_EQ(metrics.l2_hits, 0u);
  EXPECT_GT(metrics.dram_transactions, 0u);
}

TEST(Device, ScatterWritesValues) {
  Device dev(tiny_spec());
  auto& mem = dev.memory();
  auto data = mem.malloc<std::uint64_t>(8);
  dev.launch(1, [&](WarpCtx& w) {
    const std::array<LaneRow, 1> row{{{data.element_addr(0), 0, 8}}};
    std::array<std::uint64_t, 32> vals{};
    for (unsigned i = 0; i < 8; ++i) vals[i] = 100 + i;
    w.scatter<std::uint64_t>(row, vals);
  });
  for (unsigned i = 0; i < 8; ++i) {
    EXPECT_EQ(mem.read<std::uint64_t>(data.element_addr(i)), 100u + i);
  }
}

TEST(Device, InactiveLanesUntouchedByGather) {
  Device dev(tiny_spec());
  auto& mem = dev.memory();
  auto data = mem.malloc<std::uint64_t>(4);
  mem.write(data.element_addr(0), std::uint64_t{5});
  std::array<std::uint64_t, 32> got{};
  got.fill(999);
  dev.launch(1, [&](WarpCtx& w) {
    const std::array<LaneRow, 1> row{{{data.element_addr(0), 0, 1}}};
    w.gather<std::uint64_t>(row, got);
  });
  EXPECT_EQ(got[0], 5u);
  EXPECT_EQ(got[1], 999u);  // inactive lane untouched
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// A launch spanning the launch engine's 512-warp log ring several times:
// random gathers that conflict in small caches, constant-space touches,
// partial-mask compute, and a store to each warp's own slot. Counters,
// per-SM vectors and the full trace were recorded with the warps run one
// after another on one host thread.
TEST(Device, MultiBlockLaunchGolden) {
  DeviceSpec spec = tiny_spec();
  spec.cache_ways = 2;
  spec.l2_bytes = 16 << 10;
  spec.readonly_cache_bytes_per_sm = 1 << 10;
  Device dev(spec);
  auto& mem = dev.memory();
  constexpr std::uint64_t kWarps = 5000;
  constexpr std::uint64_t kElems = 1 << 14;
  auto data = mem.malloc<std::uint64_t>(kElems);
  auto table = mem.const_malloc<std::uint32_t>(256);
  auto out = mem.malloc<std::uint64_t>(kWarps);
  std::vector<std::uint64_t> host(kElems);
  for (std::uint64_t i = 0; i < kElems; ++i) host[i] = i * 3 + 1;
  mem.copy_to_device(data, std::span<const std::uint64_t>(host));

  dev.trace().enable();
  const auto m = dev.launch(kWarps, [&](WarpCtx& w) {
    Xoshiro256 rng(w.warp_id());
    std::array<LaneRow, 32> rows{};
    std::array<std::uint64_t, 32> vals{};
    const auto active = static_cast<unsigned>(1 + rng.next_below(32));
    for (unsigned i = 0; i < 32; ++i) {
      rows[i] = {data.element_addr(rng.next_below(kElems)), i, 1};
    }
    w.gather<std::uint64_t>(std::span<const LaneRow>(rows.data(), active), vals);
    w.compute(full_mask(active), 2);
    // Consecutive table entries, wrapping at the end: two rows at most.
    const auto first = static_cast<unsigned>(w.warp_id() % 256);
    const unsigned before_wrap = std::min(32u, 256 - first);
    rows[0] = {table.element_addr(first), 0, before_wrap};
    rows[1] = {table.element_addr(0), before_wrap, 32 - before_wrap};
    w.touch(std::span<const LaneRow>(rows.data(), before_wrap == 32 ? 1 : 2), 4);
    w.compute(full_mask(32));
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < active; ++i) sum += vals[i];
    const std::array<LaneRow, 1> out_row{{{out.element_addr(w.warp_id()), 0, 1}}};
    const std::array<std::uint64_t, 1> out_val{sum};
    w.scatter<std::uint64_t>(out_row, out_val);
  });

  EXPECT_EQ(m.warps, kWarps);
  EXPECT_EQ(m.steps, 15000u);
  EXPECT_EQ(m.coherent_steps, 5366u);
  EXPECT_EQ(m.loads, 15000u);
  EXPECT_EQ(m.divergent_loads, 9693u);
  EXPECT_EQ(m.transactions, 96698u);
  EXPECT_EQ(m.dram_transactions, 72871u);
  EXPECT_EQ(m.l2_hits, 13141u);
  EXPECT_EQ(m.readonly_hits, 875u);
  EXPECT_EQ(m.const_hits, 9811u);
  EXPECT_EQ(m.sm_compute_cycles, (std::vector<std::uint64_t>{15000, 15000, 15000, 15000}));
  EXPECT_EQ(m.sm_mem_cycles, (std::vector<std::uint64_t>{880276, 817624, 817006, 818974}));
  EXPECT_EQ(m.sm_resident_warps, (std::vector<std::uint64_t>{1250, 1250, 1250, 1250}));
  EXPECT_EQ(dev.trace().dropped(), 0u);
  EXPECT_EQ(dev.trace().events().size(), 25000u);
  std::ostringstream dump;
  dev.trace().dump(dump);
  EXPECT_EQ(fnv1a(dump.str()), 3793805222970622915u);
  std::uint64_t checksum = 0;
  for (std::uint64_t i = 0; i < kWarps; ++i) {
    checksum = checksum * 31 + mem.read<std::uint64_t>(out.element_addr(i));
  }
  EXPECT_EQ(checksum, 15509099559872559855u);
}

// Warps 5 and 200 share a launch block (and may run on different host
// threads); warp 4000 is in a later block.
TEST(Device, LowestThrowingWarpWins) {
  Device dev(tiny_spec());
  try {
    dev.launch(6000, [](WarpCtx& w) {
      w.compute(full_mask(32));
      if (w.warp_id() == 5 || w.warp_id() == 200 || w.warp_id() == 4000) {
        throw std::runtime_error("warp " + std::to_string(w.warp_id()));
      }
    });
    FAIL() << "launch did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "warp 5");
  }
}

// Warps of one launch may run concurrently, so a warp must not load what
// another warp of the launch stores. Debug builds check it.
TEST(Device, CrossWarpReadAfterWriteBreaksTheContract) {
#ifdef NDEBUG
  GTEST_SKIP() << "the kernel contract is checked in debug builds only";
#else
  Device dev(tiny_spec());
  auto slot = dev.memory().malloc<std::uint64_t>(1);
  const std::array<LaneRow, 1> row{{{slot.element_addr(0), 0, 1}}};
  const auto kernel = [&](WarpCtx& w) {
    std::array<std::uint64_t, 32> vals{};
    if (w.warp_id() == 3) {
      w.scatter<std::uint64_t>(row, vals);
    } else if (w.warp_id() == 20) {
      w.gather<std::uint64_t>(row, vals);
    }
  };
  EXPECT_THROW(dev.launch(64, kernel), ContractViolation);
  // A warp may load what it stored itself.
  EXPECT_NO_THROW(dev.launch(64, [&](WarpCtx& w) {
    std::array<std::uint64_t, 32> vals{};
    if (w.warp_id() != 3) return;
    w.scatter<std::uint64_t>(row, vals);
    w.gather<std::uint64_t>(row, vals);
  }));
#endif
}

TEST(Device, LoadBeforeAnotherWarpsStoreBreaksTheContract) {
#ifdef NDEBUG
  GTEST_SKIP() << "the kernel contract is checked in debug builds only";
#else
  // Warp 3 loads what warp 600, a later block's warp, stores: the two may
  // run at the same time, so the load may see either value.
  Device dev(tiny_spec());
  auto slot = dev.memory().malloc<std::uint64_t>(1);
  const std::array<LaneRow, 1> row{{{slot.element_addr(0), 0, 1}}};
  EXPECT_THROW(dev.launch(1024,
                          [&](WarpCtx& w) {
                            std::array<std::uint64_t, 32> vals{};
                            if (w.warp_id() == 3) {
                              w.gather<std::uint64_t>(row, vals);
                            } else if (w.warp_id() == 600) {
                              w.scatter<std::uint64_t>(row, vals);
                            }
                          }),
               ContractViolation);
#endif
}

TEST(DeviceSpecValidation, PresetsAreValid) {
  EXPECT_NO_THROW(titan_v().validate());
  EXPECT_NO_THROW(tesla_k80().validate());
}

TEST(DeviceSpecValidation, BadSpecsRejectedAtConstruction) {
  auto bad = tiny_spec();
  bad.warp_size = 0;
  EXPECT_THROW(Device{bad}, ContractViolation);

  bad = tiny_spec();
  bad.warp_size = 64;
  EXPECT_THROW(Device{bad}, ContractViolation);

  bad = tiny_spec();
  bad.num_sms = 0;
  EXPECT_THROW(Device{bad}, ContractViolation);

  bad = tiny_spec();
  bad.line_bytes = 100;  // not a power of two
  EXPECT_THROW(Device{bad}, ContractViolation);

  bad = tiny_spec();
  bad.clock_ghz = 0.0;
  EXPECT_THROW(Device{bad}, ContractViolation);
}

}  // namespace
}  // namespace harmonia::gpusim
