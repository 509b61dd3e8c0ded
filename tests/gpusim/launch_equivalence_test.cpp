// Property tests of Device::launch against a reference that runs the
// warps one at a time and probes every line of every access:
//
// - the launch engine: whatever the launch size and pool size, warps the
//   launching thread runs itself (probing as they run) and warps a pool
//   worker runs (logged, then replayed) must give exactly the reference's
//   counters, per-SM cycles, trace and cache contents, also when a warp
//   throws mid-launch;
// - the repeat rule in Device::probe: in a pooled launch, an access with
//   the same lines as its warp's previous access, at most cache_ways of
//   them, is charged as first-level hits without probing the caches.
//
// The LaunchEquivalence ctests also run pinned to one CPU (no workers)
// and to two (one worker), besides every CPU of the affinity mask.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gpusim/cache.hpp"
#include "gpusim/coalescer.hpp"
#include "gpusim/device.hpp"

namespace harmonia::gpusim {
namespace {

/// One step of a warp's program. A kThrow step throws.
struct Op {
  enum Kind { kCompute, kLoad, kStore, kThrow } kind;
  LaneMask mask = 0;  // compute only
  unsigned steps = 0;  // compute only
  std::vector<LaneRow> rows;  // loads and stores: one-lane rows
};

/// A small random device: 1-8 ways, a few sets per cache.
DeviceSpec random_spec(Xoshiro256& rng) {
  DeviceSpec spec = titan_v();
  constexpr std::array<unsigned, 4> kWays{1, 2, 4, 8};
  constexpr std::array<unsigned, 3> kLines{32, 64, 128};
  spec.cache_ways = kWays[rng.next_below(kWays.size())];
  spec.line_bytes = kLines[rng.next_below(kLines.size())];
  spec.num_sms = 1 + static_cast<unsigned>(rng.next_below(3));
  const std::uint64_t set_bytes = std::uint64_t{spec.line_bytes} * spec.cache_ways;
  spec.l2_bytes = set_bytes * (1 + rng.next_below(4));
  spec.readonly_cache_bytes_per_sm = set_bytes * (1 + rng.next_below(2));
  spec.global_mem_bytes = 16 << 20;
  return spec;
}

/// Where a warp's accesses go: small regions every warp loads (global
/// and constant, and a tree of 32-element chunks), and lines of its own
/// that it loads and stores, so no warp loads what another stores.
struct Regions {
  std::uint64_t shared = 0;
  std::uint64_t constant = 0;
  std::uint64_t tree = 0;
  std::uint64_t own = 0;
  static constexpr std::uint64_t kSharedLines = 12;
  static constexpr std::uint64_t kConstLines = 6;
  static constexpr std::uint64_t kOwnLines = 4;
  /// A 4-level tree of 1 + 4 + 16 + 64 nodes, each two chunks of 32 u64s.
  static constexpr std::uint64_t kTreeNodes = 85;
  static constexpr std::uint64_t kChunkBytes = 32 * sizeof(std::uint64_t);
  static constexpr std::uint64_t kNodeBytes = 2 * kChunkBytes;
};

/// The shape of the warps' programs.
enum class Shape {
  /// Random loads, stores and computes, with repeats.
  kRandom,
  /// A group-size-32 search, as a serving batch runs it: a one-lane query
  /// load, one or two 32-lane chunk rows per tree level, a value load and
  /// a one-lane result store.
  kServing,
};

/// Warp `warp`'s program, a pure function of (seed, warp): exact
/// repeats, repeats of the same lines with another mask or kind, computes
/// between them, and accesses wide enough to overflow a set.
std::vector<Op> program(std::uint64_t seed, std::uint64_t warp, const DeviceSpec& spec,
                        const Regions& regions) {
  Xoshiro256 rng(seed * 1000003 + warp);
  const unsigned line = spec.line_bytes;
  const std::uint64_t own = regions.own + warp * Regions::kOwnLines * line;
  auto random_addr = [&](bool own_only) {
    const std::uint64_t slot = rng.next_below(line / 8) * 8;
    const std::uint64_t pick = own_only ? 0 : rng.next_below(3);
    if (pick == 1) return regions.shared + rng.next_below(Regions::kSharedLines) * line + slot;
    if (pick == 2) return regions.constant + rng.next_below(Regions::kConstLines) * line + slot;
    return own + rng.next_below(Regions::kOwnLines) * line + slot;
  };
  std::vector<Op> ops;
  const unsigned n = 8 + static_cast<unsigned>(rng.next_below(24));
  std::optional<Op> prev;  // the last access
  for (unsigned i = 0; i < n; ++i) {
    if (rng.next_below(4) == 0) {
      const unsigned lanes = 1 + static_cast<unsigned>(rng.next_below(32));
      ops.push_back({Op::kCompute, full_mask(lanes), 1 + static_cast<unsigned>(rng.next_below(3)), {}});
      continue;
    }
    const std::uint64_t choice = rng.next_below(10);
    Op op{rng.next_below(4) == 0 ? Op::kStore : Op::kLoad, 0, 0, {}};
    if (prev && choice < 4) {
      op = *prev;  // an exact repeat
    } else if (prev && choice < 6) {
      // The same addresses on other lanes, and a store if they are all
      // the warp's own.
      op.rows = prev->rows;
      const unsigned shift = static_cast<unsigned>(rng.next_below(32 - op.rows.size() + 1));
      for (unsigned r = 0; r < op.rows.size(); ++r) op.rows[r].lane = r + shift;
      const bool all_own = std::all_of(op.rows.begin(), op.rows.end(), [&](const LaneRow& row) {
        return row.addr >= own && row.addr < own + Regions::kOwnLines * line;
      });
      op.kind = all_own && prev->kind == Op::kLoad ? Op::kStore : Op::kLoad;
    } else {
      const unsigned rows = 1 + static_cast<unsigned>(rng.next_below(12));
      for (unsigned r = 0; r < rows; ++r) {
        op.rows.push_back({random_addr(op.kind == Op::kStore), r, 1});
      }
    }
    ops.push_back(op);
    prev = op;
  }
  return ops;
}

/// Warp `warp`'s program in the serving shape, a pure function of
/// (seed, warp).
std::vector<Op> serving_program(std::uint64_t seed, std::uint64_t warp, const DeviceSpec& spec,
                                const Regions& regions) {
  Xoshiro256 rng(seed * 1000003 + warp);
  const std::uint64_t own = regions.own + warp * Regions::kOwnLines * spec.line_bytes;
  const LaneMask all = full_mask(spec.warp_size);
  std::vector<Op> ops;
  ops.push_back({Op::kLoad, 0, 0, {{regions.shared + warp % 32 * 8, 0, 1}}});
  ops.push_back({Op::kCompute, all, 1, {}});
  std::uint64_t node = 0;
  std::uint64_t level_first = 0;
  for (std::uint64_t level = 0, width = 1; level < 4; ++level, width *= 4) {
    const std::uint64_t chunks = 1 + rng.next_below(2);
    for (std::uint64_t c = 0; c < chunks; ++c) {
      const std::uint64_t addr =
          regions.tree + (level_first + node) * Regions::kNodeBytes + c * Regions::kChunkBytes;
      ops.push_back({Op::kLoad, 0, 0, {{addr, 0, 32}}});
      ops.push_back({Op::kCompute, all, 2, {}});
    }
    level_first += width;
    node = node * 4 + rng.next_below(4);
  }
  ops.push_back({Op::kLoad, 0, 0, {{own + rng.next_below(spec.line_bytes / 8) * 8, 0, 1}}});
  ops.push_back({Op::kStore, 0, 0, {{own, 0, 1}}});
  return ops;
}

std::vector<Op> make_program(Shape shape, std::uint64_t seed, std::uint64_t warp,
                             const DeviceSpec& spec, const Regions& regions) {
  return shape == Shape::kServing ? serving_program(seed, warp, spec, regions)
                                  : program(seed, warp, spec, regions);
}

/// Runs a program on a warp.
void run(WarpCtx& w, const std::vector<Op>& ops) {
  std::array<std::uint64_t, 32> values{};
  for (const Op& op : ops) {
    if (op.kind == Op::kThrow) throw std::runtime_error("warp " + std::to_string(w.warp_id()));
    if (op.kind == Op::kCompute) {
      w.compute(op.mask, op.steps);
    } else if (op.kind == Op::kLoad) {
      w.touch(op.rows, sizeof(std::uint64_t));
    } else {
      values.fill(w.warp_id());
      w.scatter<std::uint64_t>(op.rows, values);
    }
  }
}

/// The cache model without the repeat rule: every line of every access
/// probes its first-level cache, then the L2.
class Reference {
 public:
  Reference(const DeviceSpec& spec, std::uint64_t const_cache_bytes) : spec_(spec),
        l2_(spec.l2_bytes, spec.line_bytes, spec.cache_ways) {
    for (unsigned sm = 0; sm < spec.num_sms; ++sm) {
      readonly_.emplace_back(spec.readonly_cache_bytes_per_sm, spec.line_bytes, spec.cache_ways);
      const_.emplace_back(const_cache_bytes, spec.line_bytes, spec.cache_ways);
    }
  }

  /// A new launch: fresh counters and trace, the caches as they are.
  void begin_launch() {
    metrics = KernelMetrics{};
    metrics.sm_compute_cycles.assign(spec_.num_sms, 0);
    metrics.sm_mem_cycles.assign(spec_.num_sms, 0);
    metrics.sm_resident_warps.assign(spec_.num_sms, 0);
    trace.clear();
  }

  void run(std::uint64_t warp, const std::vector<Op>& ops) {
    const auto sm = static_cast<unsigned>(warp % spec_.num_sms);
    std::vector<std::uint64_t> prev;
    for (const Op& op : ops) {
      if (op.kind == Op::kThrow) return;
      if (op.kind == Op::kCompute) {
        const std::uint64_t cycles = std::uint64_t{op.steps} * spec_.cycles_per_compute_step;
        metrics.steps += op.steps;
        if (op.mask == full_mask(spec_.warp_size)) metrics.coherent_steps += op.steps;
        metrics.sm_compute_cycles[sm] += cycles;
        trace.push_back({warp, sm, TraceEventKind::kCompute, op.mask, 0, ServedBy::kNone, cycles});
        continue;
      }
      const LineSet lines = coalesce(op.rows, sizeof(std::uint64_t), spec_.line_bytes);
      const std::vector<std::uint64_t> now(lines.begin(), lines.end());
      if (now == prev) ++(now.size() <= spec_.cache_ways ? repeats : wide_repeats);
      prev = now;
      ++metrics.loads;
      if (now.size() > 1) ++metrics.divergent_loads;
      metrics.transactions += now.size();
      std::uint64_t worst = 0;
      ServedBy level = ServedBy::kNone;
      for (const std::uint64_t l : now) {
        touched.insert(l);
        const bool constant = l >= kConstBase / spec_.line_bytes;
        std::uint64_t lat;
        ServedBy by;
        if ((constant ? const_ : readonly_)[sm].access(l)) {
          ++(constant ? metrics.const_hits : metrics.readonly_hits);
          lat = constant ? spec_.lat_const : spec_.lat_readonly;
          by = constant ? ServedBy::kConst : ServedBy::kReadOnly;
        } else if (l2_.access(l)) {
          ++metrics.l2_hits;
          lat = spec_.lat_l2;
          by = ServedBy::kL2;
        } else {
          ++metrics.dram_transactions;
          lat = spec_.lat_dram;
          by = ServedBy::kDram;
        }
        if (lat >= worst) {
          worst = lat;
          level = by;
        }
      }
      const std::uint64_t cycles = worst + (now.size() - 1) * spec_.txn_issue_cycles;
      metrics.sm_mem_cycles[sm] += cycles;
      trace.push_back({warp, sm,
                       op.kind == Op::kStore ? TraceEventKind::kStore : TraceEventKind::kLoad,
                       lines.lanes(), static_cast<std::uint32_t>(now.size()), level, cycles});
    }
    ++metrics.sm_resident_warps[sm];
    ++metrics.warps;
  }

  void expect_same_caches(Device& dev) const {
    for (const std::uint64_t l : touched) {
      EXPECT_EQ(dev.l2().contains(l), l2_.contains(l)) << "L2, line " << l;
      for (unsigned sm = 0; sm < spec_.num_sms; ++sm) {
        EXPECT_EQ(dev.readonly_cache(sm).contains(l), readonly_[sm].contains(l))
            << "read-only cache of SM " << sm << ", line " << l;
        EXPECT_EQ(dev.const_cache(sm).contains(l), const_[sm].contains(l))
            << "constant cache of SM " << sm << ", line " << l;
      }
    }
  }

  KernelMetrics metrics;
  std::vector<TraceEvent> trace;
  std::set<std::uint64_t> touched;
  /// Accesses with the lines of the warp's previous one, within the ways
  /// and beyond them.
  std::uint64_t repeats = 0;
  std::uint64_t wide_repeats = 0;

 private:
  DeviceSpec spec_;
  Cache l2_;
  std::vector<Cache> readonly_;
  std::vector<Cache> const_;
};

void expect_same_metrics(const KernelMetrics& got, const KernelMetrics& want) {
  EXPECT_EQ(got.warps, want.warps);
  EXPECT_EQ(got.steps, want.steps);
  EXPECT_EQ(got.coherent_steps, want.coherent_steps);
  EXPECT_EQ(got.loads, want.loads);
  EXPECT_EQ(got.divergent_loads, want.divergent_loads);
  EXPECT_EQ(got.transactions, want.transactions);
  EXPECT_EQ(got.dram_transactions, want.dram_transactions);
  EXPECT_EQ(got.l2_hits, want.l2_hits);
  EXPECT_EQ(got.readonly_hits, want.readonly_hits);
  EXPECT_EQ(got.const_hits, want.const_hits);
  EXPECT_EQ(got.sm_compute_cycles, want.sm_compute_cycles);
  EXPECT_EQ(got.sm_mem_cycles, want.sm_mem_cycles);
  EXPECT_EQ(got.sm_resident_warps, want.sm_resident_warps);
}

/// Stops at the first event that differs.
void expect_same_trace(const std::vector<TraceEvent>& got, const std::vector<TraceEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const TraceEvent& a = got[i];
    const TraceEvent& b = want[i];
    if (a.warp == b.warp && a.sm == b.sm && a.kind == b.kind && a.mask == b.mask &&
        a.transactions == b.transactions && a.served_by == b.served_by && a.cycles == b.cycles) {
      continue;
    }
    ADD_FAILURE() << "trace event " << i << " of warp " << a.warp << ": " << to_string(a.kind)
                  << " mask " << a.mask << ", " << a.transactions << " txns, "
                  << to_string(a.served_by) << ", " << a.cycles << " cycles; want "
                  << to_string(b.kind) << " mask " << b.mask << ", " << b.transactions
                  << " txns, " << to_string(b.served_by) << ", " << b.cycles << " cycles";
    return;
  }
}

/// A random device with the regions of a `warps`-warp launch, traced,
/// and a reference in the same state.
struct Bench {
  Bench(std::uint64_t seed, std::uint64_t warps)
      : rng(seed), spec(random_spec(rng)), dev(spec) {
    regions.shared =
        dev.memory().malloc<std::uint8_t>(Regions::kSharedLines * spec.line_bytes).addr;
    regions.constant =
        dev.memory().const_malloc<std::uint8_t>(Regions::kConstLines * spec.line_bytes).addr;
    regions.tree =
        dev.memory().malloc<std::uint8_t>(Regions::kTreeNodes * Regions::kNodeBytes).addr;
    regions.own =
        dev.memory().malloc<std::uint8_t>(warps * Regions::kOwnLines * spec.line_bytes).addr;
    dev.trace().enable(std::size_t{1} << 22);
    ref.emplace(spec, dev.const_cache(0).capacity_bytes());
  }

  /// Launches `warps` warps of `shape` programs and checks the launch
  /// against the reference.
  void launch_and_check(Shape shape, std::uint64_t program_seed, std::uint64_t warps) {
    const KernelMetrics got = dev.launch(warps, [&](WarpCtx& w) {
      run(w, make_program(shape, program_seed, w.warp_id(), spec, regions));
    });
    ref->begin_launch();
    for (std::uint64_t w = 0; w < warps; ++w) {
      ref->run(w, make_program(shape, program_seed, w, spec, regions));
    }
    expect_same_metrics(got, ref->metrics);
    expect_same_trace(dev.trace().events(), ref->trace);
    ref->expect_same_caches(dev);
    dev.trace().clear();
  }

  std::string describe(std::uint64_t warps) const {
    return (::testing::Message() << spec.cache_ways << " ways, " << spec.line_bytes
                                 << " B lines, " << spec.num_sms << " SMs, " << warps
                                 << " warps")
        .GetString();
  }

  Xoshiro256 rng;
  DeviceSpec spec;
  Device dev;
  Regions regions;
  std::optional<Reference> ref;
};

/// Two launches of `warps` warps on one random device (the second starts
/// from the first's cache state), against the reference.
void check(std::uint64_t seed, std::uint64_t warps, Shape shape = Shape::kRandom) {
  Bench bench(seed, warps);
  SCOPED_TRACE(::testing::Message() << "seed " << seed << ", " << bench.describe(warps));
  for (std::uint64_t launch = 0; launch < 2; ++launch) {
    bench.launch_and_check(shape, seed * 2 + launch, warps);
  }
  if (shape != Shape::kRandom || warps < 32) return;
  // The sequences must exercise both sides of the repeat rule.
  EXPECT_GT(bench.ref->repeats, warps / 4);
  if (bench.spec.cache_ways < 8) {
    EXPECT_GT(bench.ref->wide_repeats, 0u);
  }
}

TEST(RepeatAccess, InlineLaunchMatchesFullProbe) {
  // Below the pool's 64-warp threshold: the launching thread runs every
  // warp and probes every line.
  for (std::uint64_t seed = 1; seed <= 24; ++seed) check(seed, 63);
}

TEST(LaunchEquivalence, RandomProgramsAtEverySize) {
  // From one warp, through partial and whole grains of 8 warps, to past
  // the 512-warp log ring and the old 4096-warp pool threshold.
  const std::uint64_t sizes[] = {1, 5, 8, 9, 63, 64, 65, 200, 511, 512, 513, 1031, 4101};
  std::uint64_t seed = 100;
  for (const std::uint64_t warps : sizes) check(++seed, warps);
}

TEST(LaunchEquivalence, ServingShape) {
  // A serving batch: 2048 queries at group size 32, one warp each.
  for (std::uint64_t seed = 201; seed <= 203; ++seed) check(seed, 2048, Shape::kServing);
}

TEST(LaunchEquivalence, ThrowMidLaunch) {
  // A few warps throw partway through their programs. The launch rethrows
  // the lowest one's exception; the warps before it, and its accesses up
  // to the throw, reach the caches and the trace, and nothing runs the
  // kernel once the launch is over. The next launch starts from there.
  for (std::uint64_t seed = 301; seed <= 306; ++seed) {
    const std::uint64_t warps = 700 + seed * 97 % 1400;
    Bench bench(seed, warps);
    SCOPED_TRACE(::testing::Message() << "seed " << seed << ", " << bench.describe(warps));
    const std::uint64_t first = bench.rng.next_below(warps);
    const std::set<std::uint64_t> throwing{first, first + bench.rng.next_below(warps - first),
                                           first + bench.rng.next_below(warps - first)};
    auto program_of = [&](std::uint64_t w) {
      std::vector<Op> ops = program(seed, w, bench.spec, bench.regions);
      if (throwing.count(w) != 0) {
        ops.insert(ops.begin() + static_cast<std::ptrdiff_t>(ops.size() / 2), Op{Op::kThrow, 0, 0, {}});
      }
      return ops;
    };
    std::atomic<bool> over{false};
    std::atomic<std::uint64_t> late{0};
    try {
      bench.dev.launch(warps, [&](WarpCtx& w) {
        if (over.load()) ++late;
        run(w, program_of(w.warp_id()));
      });
      ADD_FAILURE() << "the launch did not throw";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "warp " + std::to_string(first));
    }
    over.store(true);
    bench.ref->begin_launch();
    for (std::uint64_t w = 0; w <= first; ++w) bench.ref->run(w, program_of(w));
    expect_same_trace(bench.dev.trace().events(), bench.ref->trace);
    bench.ref->expect_same_caches(bench.dev);
    bench.dev.trace().clear();
    bench.launch_and_check(Shape::kRandom, seed * 2 + 1, warps);
    EXPECT_EQ(late.load(), 0u);
  }
}

}  // namespace
}  // namespace harmonia::gpusim
