#include "gpusim/device.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <utility>

#include "gpusim/host_pool.hpp"

#ifndef NDEBUG
#include <unordered_map>
#endif

namespace harmonia::gpusim {

/// One warp's functional run, kept for the serial cache replay: the
/// counters that do not depend on the caches, then, for a warp run on the
/// pool, its accesses in program order. A warp run on the launching
/// thread has probed the caches already and logs no access.
struct WarpLog {
  struct Record {
    TraceEventKind kind;
    /// A repeat: the access's lines are those of the warp's previous
    /// access, so it logs none (see Device::probe).
    bool repeat;
    LaneMask mask;
    /// A load/store's line count (unless it repeats, its lines are the
    /// next `count` entries of `lines`), or a compute record's steps.
    std::uint32_t count;
  };

  std::uint64_t steps = 0;
  std::uint64_t coherent_steps = 0;
  std::uint64_t loads = 0;
  std::uint64_t divergent_loads = 0;
  std::uint64_t transactions = 0;
  std::uint64_t compute_cycles = 0;
  /// Memory cycles of the accesses probed as they ran.
  std::uint64_t mem_cycles = 0;
  /// Loads and stores; compute steps only while tracing.
  std::vector<Record> records;
  /// Every access's LineSet but a repeat's, back to back: the last
  /// `last_count` entries are the previous access's lines.
  std::vector<std::uint64_t> lines;
  std::uint32_t last_count = 0;
  /// What the kernel threw, if anything.
  std::exception_ptr error;
#ifndef NDEBUG
  /// Accessed byte ranges (address, bytes), one per row, for the contract
  /// check.
  std::vector<std::pair<std::uint64_t, unsigned>> reads;
  std::vector<std::pair<std::uint64_t, unsigned>> writes;
#endif

  void reset() {
    steps = coherent_steps = loads = divergent_loads = transactions = compute_cycles = 0;
    mem_cycles = 0;
    records.clear();
    lines.clear();
    last_count = 0;
    error = nullptr;
#ifndef NDEBUG
    reads.clear();
    writes.clear();
#endif
  }
};

namespace {

/// Constant caches are small; 2 KiB per SM models the 8 KiB broadcast
/// cache conservatively sliced for our working set.
constexpr std::uint64_t kConstCacheBytes = 2 << 10;

/// Warps a thread claims at a time.
constexpr std::uint64_t kGrainWarps = 8;
/// Log ring: the pool runs at most this many grains ahead of the
/// launching thread.
constexpr std::uint64_t kRingGrains = 64;
/// The smallest launch handed to the pool. With the workers polling
/// between launches (host_pool.cpp), a serving batch's search (group
/// size 32, one query per warp) ran 1.5-3.4x faster on a pool of 4 than
/// on the launching thread alone from 64 warps to 2048, and about as
/// fast at 16. A launch of near-empty warps (one compute step each)
/// loses 4-20 microseconds on the pool at any size (docs/perf_log.md).
constexpr std::uint64_t kPoolMinWarps = 64;

/// One pooled launch: the launching thread walks the grains in order,
/// and runs each grain no worker has claimed itself; the workers claim
/// grains ahead of it, at most kRingGrains ahead, and log them into the
/// ring, and so does the launching thread while it waits for one. The
/// workers keep it alive past the launch, but call `run_grain` only for
/// a grain they claimed.
class Launch final : public PoolWork {
 public:
  Launch(std::function<void(std::uint64_t, WarpLog*)> run_grain, std::uint64_t grains,
         WarpLog* ring)
      : run_grain_(std::move(run_grain)), grains_(grains), ring_(ring) {}

  /// A worker's share: claims and runs grains until the launching
  /// thread has passed the last one, polling while the ring is full or
  /// nothing is left to claim. A worker that left as soon as it found
  /// nothing to claim would start the pool's wait for the next launch
  /// while the launching thread still replays the ring.
  void work() override {
    SpinWait spin;
    for (;;) {
      const std::uint64_t passed = passed_.load(std::memory_order_acquire);
      if (passed >= grains_) return;
      if (!run_ahead(passed)) spin();
    }
  }

  /// The launching thread, at grain g: claims it if no thread has.
  bool claim(std::uint64_t g) {
    if (next_.load(std::memory_order_relaxed) != g) return false;
    std::uint64_t expected = g;
    if (!next_.compare_exchange_strong(expected, g + 1, std::memory_order_relaxed)) return false;
    ++claimed_inline_;
    return true;
  }

  /// The logs of grain g, which another thread claimed, once it is done.
  /// Meanwhile the launching thread runs grains further ahead into the
  /// ring, as a worker would.
  const WarpLog* wait(std::uint64_t g) {
    SpinWait spin;
    while (done_[g % kRingGrains].load(std::memory_order_acquire) != g + 1) {
      if (!run_ahead(g)) spin();
    }
    return logs(g);
  }

  /// The launching thread is done with grain g: its ring slot is free.
  void passed(std::uint64_t g) { passed_.store(g + 1, std::memory_order_release); }

  /// Stops the claiming and waits for the grains run into the ring, so
  /// that no thread runs the kernel once the launch returns.
  void drain() {
    const std::uint64_t claimed = std::min(next_.exchange(grains_), grains_);
    passed_.store(grains_, std::memory_order_release);
    SpinWait spin;
    while (logged_.load(std::memory_order_acquire) < claimed - claimed_inline_) spin();
  }

 private:
  WarpLog* logs(std::uint64_t g) const { return ring_ + (g % kRingGrains) * kGrainWarps; }

  /// Claims the next grain and runs it into the ring, if one is left and
  /// the ring has room for it, `passed` grains being passed.
  bool run_ahead(std::uint64_t passed) {
    std::uint64_t g = next_.load(std::memory_order_relaxed);
    do {
      if (g >= grains_ || g >= passed + kRingGrains) return false;
    } while (!next_.compare_exchange_weak(g, g + 1, std::memory_order_relaxed));
    run_grain_(g, logs(g));
    done_[g % kRingGrains].store(g + 1, std::memory_order_release);
    logged_.fetch_add(1, std::memory_order_release);
    return true;
  }

  std::function<void(std::uint64_t, WarpLog*)> run_grain_;
  const std::uint64_t grains_;
  WarpLog* const ring_;
  // The counters every thread polls, each on a cache line of its own.
  alignas(64) std::atomic<std::uint64_t> next_{0};
  /// Grains the launching thread is done with.
  alignas(64) std::atomic<std::uint64_t> passed_{0};
  /// Per ring slot, one past the last grain run into it.
  std::array<std::atomic<std::uint64_t>, kRingGrains> done_{};
  /// Grains run into the ring.
  alignas(64) std::atomic<std::uint64_t> logged_{0};
  /// Grains the launching thread claimed; only it reads or writes this.
  std::uint64_t claimed_inline_ = 0;
};

/// The log ring of the launches made on this thread, then the log of
/// the warp it runs itself, kept from launch to launch so that the logs'
/// vectors keep their capacity.
std::vector<WarpLog>& launch_logs() {
  thread_local std::vector<WarpLog> logs(kRingGrains * kGrainWarps + 1);
  return logs;
}

#ifndef NDEBUG
/// Debug builds: the launch's stored and loaded bytes, by 8-byte word. A
/// load of bytes that another warp of the launch stores, before or after
/// it, breaks the kernel contract. Warps are checked in warp-id order:
/// each warp's stores against the loads of the warps before it, then its
/// loads against every store so far, its own included. That catches
/// every cross-warp overlap within the launch, whichever warp runs first.
class ContractCheck {
 public:
  void check_warp(const WarpLog& log, std::uint64_t warp) {
    for (const auto& [addr, bytes] : log.writes) {
      for_words(addr, bytes, [&](std::uint64_t word, std::uint8_t mask) {
        HARMONIA_CHECK_MSG(!touched_by_other(read_, word, mask, warp),
                           "warp " << warp << " stores address " << addr
                                   << ", which another warp of the same launch loads");
      });
    }
    for (const auto& [addr, bytes] : log.writes) add(written_, addr, bytes, warp);
    for (const auto& [addr, bytes] : log.reads) {
      for_words(addr, bytes, [&](std::uint64_t word, std::uint8_t mask) {
        HARMONIA_CHECK_MSG(!touched_by_other(written_, word, mask, warp),
                           "warp " << warp << " loads address " << addr
                                   << ", which another warp of the same launch stores");
      });
      add(read_, addr, bytes, warp);
    }
  }

 private:
  static constexpr std::uint64_t kSeveral = ~std::uint64_t{0};
  /// The warp that touched a word (kSeveral if more than one) and the
  /// bytes touched.
  struct Toucher {
    std::uint64_t warp;
    std::uint8_t bytes;
  };
  using Words = std::unordered_map<std::uint64_t, Toucher>;

  static bool touched_by_other(const Words& words, std::uint64_t word, std::uint8_t mask,
                               std::uint64_t warp) {
    const auto it = words.find(word);
    return it != words.end() && (it->second.bytes & mask) != 0 && it->second.warp != warp;
  }

  static void add(Words& words, std::uint64_t addr, unsigned bytes, std::uint64_t warp) {
    for_words(addr, bytes, [&](std::uint64_t word, std::uint8_t mask) {
      auto [it, fresh] = words.try_emplace(word, Toucher{warp, mask});
      if (fresh) return;
      if (it->second.warp != warp) it->second.warp = kSeveral;
      it->second.bytes = static_cast<std::uint8_t>(it->second.bytes | mask);
    });
  }

  template <typename F>
  static void for_words(std::uint64_t addr, unsigned bytes, F&& f) {
    for (std::uint64_t b = addr; b < addr + bytes;) {
      const std::uint64_t word = b / 8;
      const std::uint64_t end = std::min(addr + bytes, (word + 1) * 8);
      std::uint8_t mask = 0;
      for (; b < end; ++b) mask = static_cast<std::uint8_t>(mask | (1u << (b % 8)));
      f(word, mask);
    }
  }

  Words written_;
  Words read_;
};
#endif

}  // namespace

Device::Device(DeviceSpec spec)
    : spec_((spec.validate(), std::move(spec))),
      memory_(spec_.global_mem_bytes, spec_.const_mem_bytes),
      l2_(spec_.l2_bytes, spec_.line_bytes, spec_.cache_ways) {
  readonly_.reserve(spec_.num_sms);
  const_.reserve(spec_.num_sms);
  for (unsigned sm = 0; sm < spec_.num_sms; ++sm) {
    readonly_.emplace_back(spec_.readonly_cache_bytes_per_sm, spec_.line_bytes,
                           spec_.cache_ways);
    const_.emplace_back(kConstCacheBytes, spec_.line_bytes, spec_.cache_ways);
  }
}

Cache& Device::readonly_cache(unsigned sm) {
  HARMONIA_CHECK(sm < readonly_.size());
  return readonly_[sm];
}

Cache& Device::const_cache(unsigned sm) {
  HARMONIA_CHECK(sm < const_.size());
  return const_[sm];
}

void Device::flush_caches() {
  l2_.flush();
  for (auto& c : readonly_) c.flush();
  for (auto& c : const_) c.flush();
}

KernelMetrics Device::launch(std::uint64_t num_warps, const WarpKernel& kernel) {
  HARMONIA_CHECK(num_warps > 0);
  KernelMetrics metrics;
  metrics.sm_compute_cycles.assign(spec_.num_sms, 0);
  metrics.sm_mem_cycles.assign(spec_.num_sms, 0);
  metrics.sm_resident_warps.assign(spec_.num_sms, 0);
#ifndef NDEBUG
  ContractCheck contract;
#endif
  // Adds warp w's log to the metrics: its counters, and the probes and
  // trace events of the accesses it logged. A throwing warp ends the
  // launch. The warps before it, and its own accesses up to the throw,
  // still reach the caches and the trace, as when warps ran one at a
  // time.
  auto finish = [&](const WarpLog& log, std::uint64_t w) {
#ifndef NDEBUG
    if (!log.error) contract.check_warp(log, w);
#endif
    replay(log, w, metrics);
    if (log.error) std::rethrow_exception(log.error);
  };

  std::vector<WarpLog>& logs = launch_logs();
  WarpLog& inline_log = logs.back();
  const std::uint64_t grains = (num_warps + kGrainWarps - 1) / kGrainWarps;
  PoolLease lease(num_warps, kPoolMinWarps);
  std::shared_ptr<Launch> pooled;
  if (lease.held()) {
    pooled = std::make_shared<Launch>(
        [this, &kernel, num_warps](std::uint64_t g, WarpLog* grain_logs) {
          const std::uint64_t first = g * kGrainWarps;
          const std::uint64_t end = std::min(num_warps, first + kGrainWarps);
          for (std::uint64_t w = first; w < end; ++w) {
            run_warp(kernel, w, grain_logs[w - first], nullptr);
          }
        },
        grains, logs.data());
    lease.start(pooled);
  }
  // However the launch ends, no thread runs the kernel after it.
  struct Drain {
    Launch* launch;
    ~Drain() {
      if (launch != nullptr) launch->drain();
    }
  } drain{pooled.get()};

  // Warp-id order: a grain no thread has claimed runs here, one warp at a
  // time, probing the caches as each access happens; a grain run into the
  // ring is replayed from its logs.
  for (std::uint64_t g = 0; g < grains; ++g) {
    const std::uint64_t first = g * kGrainWarps;
    const std::uint64_t end = std::min(num_warps, first + kGrainWarps);
    if (pooled == nullptr || pooled->claim(g)) {
      for (std::uint64_t w = first; w < end; ++w) {
        run_warp(kernel, w, inline_log, &metrics);
        finish(inline_log, w);
      }
    } else {
      const WarpLog* grain_logs = pooled->wait(g);
      for (std::uint64_t w = first; w < end; ++w) finish(grain_logs[w - first], w);
    }
    if (pooled != nullptr) pooled->passed(g);
  }
  return metrics;
}

void Device::run_warp(const WarpKernel& kernel, std::uint64_t warp, WarpLog& log,
                      KernelMetrics* probe_now) {
  log.reset();
  WarpCtx ctx(*this, warp, static_cast<unsigned>(warp % spec_.num_sms), log, probe_now);
  try {
    kernel(ctx);
  } catch (...) {
    log.error = std::current_exception();
  }
}

void Device::replay(const WarpLog& log, std::uint64_t warp, KernelMetrics& m) {
  const auto sm = static_cast<unsigned>(warp % spec_.num_sms);
  m.steps += log.steps;
  m.coherent_steps += log.coherent_steps;
  m.loads += log.loads;
  m.divergent_loads += log.divergent_loads;
  m.transactions += log.transactions;

  std::uint64_t mem_cycles = log.mem_cycles;
  const std::uint64_t* line = log.lines.data();
  for (const WarpLog::Record& r : log.records) {
    if (r.kind == TraceEventKind::kCompute) {
      trace_.record({warp, sm, r.kind, r.mask, 0, ServedBy::kNone,
                     static_cast<std::uint64_t>(r.count) * spec_.cycles_per_compute_step});
      continue;
    }
    if (r.repeat) {
      mem_cycles += probe(warp, sm, r.kind, r.mask, line - r.count, r.count, true, m);
      continue;
    }
    mem_cycles += probe(warp, sm, r.kind, r.mask, line, r.count, false, m);
    line += r.count;
  }

  m.sm_compute_cycles[sm] += log.compute_cycles;
  m.sm_mem_cycles[sm] += mem_cycles;
  m.sm_resident_warps[sm] += 1;
  ++m.warps;
}

std::uint64_t Device::probe(std::uint64_t warp, unsigned sm, TraceEventKind kind,
                            LaneMask mask, const std::uint64_t* lines, std::uint32_t count,
                            bool repeat, KernelMetrics& m) {
  // The warp's access completes when its slowest line is served;
  // additional transactions serialize in the load/store unit.
  std::uint64_t worst_latency = 0;
  ServedBy worst_level = ServedBy::kNone;
  for (const std::uint64_t* line = lines; line != lines + count; ++line) {
    // Line addresses of constant space retain the kConstBase tag, so the
    // two spaces never alias in the shared L2.
    const bool constant = *line >= kConstBase / spec_.line_bytes;
    Cache& first = constant ? const_[sm] : readonly_[sm];
    std::uint64_t lat;
    ServedBy level;
    // A repeat's lines are resident in their first-level cache, and
    // probing them again would leave every set as it is: skip the probe.
    if (repeat || first.access(*line)) {
      ++(constant ? m.const_hits : m.readonly_hits);
      lat = constant ? spec_.lat_const : spec_.lat_readonly;
      level = constant ? ServedBy::kConst : ServedBy::kReadOnly;
    } else if (l2_.access(*line)) {
      ++m.l2_hits;
      lat = spec_.lat_l2;
      level = ServedBy::kL2;
    } else {
      ++m.dram_transactions;
      lat = spec_.lat_dram;
      level = ServedBy::kDram;
    }
    if (lat >= worst_latency) {
      worst_latency = lat;
      worst_level = level;
    }
  }
  const std::uint64_t cycles =
      worst_latency + static_cast<std::uint64_t>(count - 1) * spec_.txn_issue_cycles;
  if (trace_.enabled()) trace_.record({warp, sm, kind, mask, count, worst_level, cycles});
  return cycles;
}

unsigned WarpCtx::warp_size() const { return device_.spec_.warp_size; }

const DeviceSpec& WarpCtx::spec() const { return device_.spec_; }

void WarpCtx::compute(LaneMask active, unsigned steps) {
  HARMONIA_DCHECK(active != 0);
  log_.steps += steps;
  if (active == full_mask(warp_size())) log_.coherent_steps += steps;
  const std::uint64_t cycles =
      static_cast<std::uint64_t>(steps) * device_.spec_.cycles_per_compute_step;
  log_.compute_cycles += cycles;
  if (!device_.trace_.enabled()) return;
  if (probe_now_ != nullptr) {
    device_.trace_.record(
        {warp_id_, sm_id_, TraceEventKind::kCompute, active, 0, ServedBy::kNone, cycles});
  } else {
    log_.records.push_back({TraceEventKind::kCompute, false, active, steps});
  }
}

void WarpCtx::touch(std::span<const LaneRow> rows, unsigned bytes_per_lane) {
  account_access(rows, bytes_per_lane, TraceEventKind::kLoad);
}

void WarpCtx::account_access(std::span<const LaneRow> rows, unsigned bytes_per_lane,
                             TraceEventKind kind) {
  if (rows.empty()) return;
  const LineSet lines = coalesce(rows, bytes_per_lane, device_.spec_.line_bytes);
  HARMONIA_DCHECK(!lines.empty());

  ++log_.loads;
  if (lines.size() > 1) ++log_.divergent_loads;
  log_.transactions += lines.size();
  const auto count = static_cast<std::uint32_t>(lines.size());
  if (probe_now_ != nullptr) {
    log_.mem_cycles += device_.probe(warp_id_, sm_id_, kind, lines.lanes(), lines.begin(),
                                     count, false, *probe_now_);
  } else {
    // The same lines as the warp's previous access, and no more than a set
    // holds: each is resident in its first-level cache, and the replay
    // need not probe them (Device::probe). Only logged warps are checked:
    // on the launching thread the check shares a thread with the probes
    // it saves, and it measured slower than them (docs/gpusim.md,
    // "Repeated accesses").
    const bool repeat = count == log_.last_count && count <= device_.spec_.cache_ways &&
                        std::equal(lines.begin(), lines.end(), log_.lines.end() - count);
    log_.last_count = count;
    log_.records.push_back({kind, repeat, lines.lanes(), count});
    if (!repeat) log_.lines.insert(log_.lines.end(), lines.begin(), lines.end());
  }
#ifndef NDEBUG
  auto& ranges = kind == TraceEventKind::kStore ? log_.writes : log_.reads;
  for (const LaneRow& r : rows) {
    ranges.emplace_back(r.addr, (r.broadcast ? 1 : r.count) * bytes_per_lane);
  }
#endif
}

}  // namespace harmonia::gpusim
