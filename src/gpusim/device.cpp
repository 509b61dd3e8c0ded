#include "gpusim/device.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#ifdef __linux__
#include <sched.h>
#endif
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
    LaneMask mask;
    /// A load/store's line count (its lines are the next `count` entries
    /// of `lines`), or a compute record's steps.
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
  /// Every access's LineSet, back to back.
  std::vector<std::uint64_t> lines;
  /// What the kernel threw, if anything.
  std::exception_ptr error;
#ifndef NDEBUG
  /// Active lanes' byte ranges (address, bytes), for the contract check.
  std::vector<std::pair<std::uint64_t, unsigned>> reads;
  std::vector<std::pair<std::uint64_t, unsigned>> writes;
#endif

  void reset() {
    steps = coherent_steps = loads = divergent_loads = transactions = compute_cycles = 0;
    mem_cycles = 0;
    records.clear();
    lines.clear();
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

/// Warps whose functional phase runs before their block is replayed.
constexpr std::uint64_t kBlockWarps = 512;
/// Warps a thread claims at a time.
constexpr std::uint64_t kGrainWarps = 8;
constexpr std::uint64_t kBlockGrains = kBlockWarps / kGrainWarps;
/// Log buffers: the functional phase runs at most this many blocks ahead
/// of the replay.
constexpr std::uint64_t kBuffers = 2;
/// The smallest launch handed to the pool. Every pooled launch wakes the
/// workers, fills and drains the pipeline and ends waiting for the last
/// grain; on a shared host each of these waits depends on when the host
/// runs the workers' CPUs. Over launches of a few blocks they made the
/// wall time swing by more than 2x from run to run, so such a launch (a
/// serving batch at the default `max_batch` is at most 2048 warps) runs
/// on the calling thread, one warp at a time, and the pool takes launches
/// long enough to amortize them (a paper-size batch is 32768 warps or
/// more).
constexpr std::uint64_t kPoolMinWarps = 8 * kBlockWarps;

/// CPUs in this process's affinity mask (`taskset -c 0` gives 1).
unsigned affinity_cpus() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Threads a pooled launch runs on, the launching thread included: half
/// the CPUs of the affinity mask, and two when there are two or three.
/// The wall time of a pooled launch varies from run to run in proportion
/// to its speed, by about 8% on a shared 4-vCPU host whatever the pool
/// size, so with every CPU (3.5x on `batch_lookup`) the run-to-run spread
/// exceeded a quarter of the one-thread median, while with half (1.9x) it
/// stayed well inside it.
unsigned pool_threads() {
  const unsigned cpus = affinity_cpus();
  return cpus < 2 ? 1 : std::max(2u, cpus / 2);
}

/// One launch's functional phase. Grains are claimed in warp order, and
/// a grain may run only once its block's log buffer is free, that is,
/// once the block kBuffers before it has been replayed. Pool threads and
/// the launching thread share it; the pool threads keep it alive past the
/// launch, but call `run_grain` only for a grain they claimed.
class Job {
 public:
  Job(std::function<void(std::uint64_t)> run_grain, std::uint64_t num_warps)
      : run_grain_(std::move(run_grain)),
        num_warps_(num_warps),
        grains_((num_warps + kGrainWarps - 1) / kGrainWarps),
        done_(std::make_unique<std::atomic<std::uint32_t>[]>(blocks())) {}

  std::uint64_t blocks() const { return (num_warps_ + kBlockWarps - 1) / kBlockWarps; }
  std::uint64_t block_warps(std::uint64_t b) const {
    return std::min(kBlockWarps, num_warps_ - b * kBlockWarps);
  }

  /// A pool thread's share: claims and runs grains until none is left,
  /// waiting for the replay while both buffers are full.
  void work() {
    for (;;) {
      const std::uint32_t replayed = replayed_.load(std::memory_order_acquire);
      if (run_one(replayed)) continue;
      if (next_.load(std::memory_order_relaxed) >= grains_) return;
      replayed_.wait(replayed, std::memory_order_acquire);
    }
  }

  /// The launching thread's share before it replays block `b`: runs
  /// grains (of block b or later) until every grain of block b is done.
  void complete(std::uint64_t b) {
    const auto need =
        static_cast<std::uint32_t>((block_warps(b) + kGrainWarps - 1) / kGrainWarps);
    for (;;) {
      const std::uint32_t done = done_[b].load(std::memory_order_acquire);
      if (done == need) return;
      if (!run_one(static_cast<std::uint32_t>(b))) {
        done_[b].wait(done, std::memory_order_acquire);
      }
    }
  }

  /// Frees block `b`'s buffer once the launching thread has replayed it.
  void replayed(std::uint64_t b) {
    replayed_.store(static_cast<std::uint32_t>(b + 1), std::memory_order_release);
    replayed_.notify_all();
  }

  /// Stops the claiming and waits for the grains already claimed, so that
  /// no thread runs the kernel once the launch returns.
  void drain() {
    const std::uint64_t claimed = std::min(next_.exchange(grains_), grains_);
    replayed_.fetch_add(1, std::memory_order_release);
    replayed_.notify_all();
    while (completed_.load(std::memory_order_acquire) < claimed) std::this_thread::yield();
  }

 private:
  /// Claims and runs the next grain if its block's buffer is free.
  bool run_one(std::uint32_t replayed) {
    const std::uint64_t limit = std::min(grains_, (replayed + kBuffers) * kBlockGrains);
    std::uint64_t g = next_.load(std::memory_order_relaxed);
    do {
      if (g >= limit) return false;
    } while (!next_.compare_exchange_weak(g, g + 1, std::memory_order_relaxed));
    run_grain_(g);
    std::atomic<std::uint32_t>& done = done_[g / kBlockGrains];
    done.fetch_add(1, std::memory_order_release);
    done.notify_all();
    completed_.fetch_add(1, std::memory_order_release);
    return true;
  }

  std::function<void(std::uint64_t)> run_grain_;
  std::uint64_t num_warps_;
  std::uint64_t grains_;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::uint64_t> completed_{0};
  /// Blocks replayed so far.
  std::atomic<std::uint32_t> replayed_{0};
  /// Grains done, per block.
  std::unique_ptr<std::atomic<std::uint32_t>[]> done_;
};

/// The process-wide host pool that runs the functional phase. It has
/// pool_threads() workers less one for the launching thread, which claims
/// grains too. Workers sleep between launches and are woken
/// once per launch; a launch never waits for a worker that has not
/// claimed a grain.
class HostPool {
 public:
  static HostPool& instance() {
    static HostPool pool(pool_threads());
    return pool;
  }

  /// Threads a launch runs on, the launching thread included.
  unsigned size() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// One launching thread holds the pool at a time.
  bool try_acquire() { return !held_.exchange(true, std::memory_order_acquire); }
  void release() { held_.store(false, std::memory_order_release); }

  /// Hands `job` to the workers and returns.
  void start(std::shared_ptr<Job> job) {
    {
      std::lock_guard lock(mutex_);
      job_ = std::move(job);
    }
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
  }

  HostPool(const HostPool&) = delete;
  HostPool& operator=(const HostPool&) = delete;

 private:
  explicit HostPool(unsigned threads) {
    for (unsigned i = 1; i < threads; ++i) workers_.emplace_back([this] { work(); });
  }

  ~HostPool() {
    stop_.store(true);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    for (auto& t : workers_) t.join();
  }

  void work() {
    std::uint32_t seen = 0;
    for (;;) {
      generation_.wait(seen, std::memory_order_acquire);
      seen = generation_.load(std::memory_order_acquire);
      if (stop_.load()) return;
      std::shared_ptr<Job> job;
      {
        std::lock_guard lock(mutex_);
        job = job_;
      }
      if (job) job->work();
    }
  }

  std::atomic<bool> held_{false};
  std::atomic<bool> stop_{false};
  /// Bumped once per launch handed to the workers.
  std::atomic<std::uint32_t> generation_{0};
  std::mutex mutex_;
  std::shared_ptr<Job> job_;  // guarded by mutex_
  // Last: the workers use every member above.
  std::vector<std::thread> workers_;
};

/// Holds the pool for one launch of at least kPoolMinWarps warps, if the
/// pool has workers and no other thread holds it. Otherwise the launching
/// thread runs the launch itself: a small launch, or one made while
/// another thread holds the pool.
class PoolLease {
 public:
  explicit PoolLease(std::uint64_t num_warps) {
    if (num_warps < kPoolMinWarps) return;
    HostPool& pool = HostPool::instance();
    if (pool.size() > 1 && pool.try_acquire()) pool_ = &pool;
  }
  ~PoolLease() {
    if (pool_ != nullptr) pool_->release();
  }
  PoolLease(const PoolLease&) = delete;
  PoolLease& operator=(const PoolLease&) = delete;

  /// The pool, if this launch holds it.
  HostPool* pool() const { return pool_; }

 private:
  HostPool* pool_ = nullptr;
};

/// The log buffers of the launches made on this thread, kept from launch
/// to launch so that the logs' vectors keep their capacity.
std::array<std::vector<WarpLog>, kBuffers>& log_buffers() {
  thread_local std::array<std::vector<WarpLog>, kBuffers> buffers;
  return buffers;
}

#ifndef NDEBUG
/// Debug builds: the launch's stored and loaded bytes, by 8-byte word. A
/// load of bytes that another warp of the launch stores, before or after
/// it, breaks the kernel contract. Each block's stores are checked
/// against the loads of earlier blocks and then added; its loads are then
/// checked against every store so far, which catches every cross-warp
/// overlap within the launch, whichever warp runs first.
class ContractCheck {
 public:
  void check_block(const WarpLog* logs, std::uint64_t first, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t warp = first + i;
      for (const auto& [addr, bytes] : logs[i].writes) {
        for_words(addr, bytes, [&](std::uint64_t word, std::uint8_t mask) {
          HARMONIA_CHECK_MSG(!touched_by_other(read_, word, mask, warp),
                             "warp " << warp << " stores address " << addr
                                     << ", which another warp of the same launch loads");
        });
      }
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      for (const auto& [addr, bytes] : logs[i].writes) add(written_, addr, bytes, first + i);
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t warp = first + i;
      for (const auto& [addr, bytes] : logs[i].reads) {
        for_words(addr, bytes, [&](std::uint64_t word, std::uint8_t mask) {
          HARMONIA_CHECK_MSG(!touched_by_other(written_, word, mask, warp),
                             "warp " << warp << " loads address " << addr
                                     << ", which another warp of the same launch stores");
        });
        add(read_, addr, bytes, warp);
      }
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
  // Replays the logs of warps [first, first + count). A throwing warp
  // ends the launch. The warps before it, and its own accesses up to the
  // throw, still reach the caches and the trace, as when warps ran one
  // at a time.
  auto replay_logs = [&](const WarpLog* logs, std::uint64_t first, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
      if (!logs[i].error) continue;
      for (std::uint64_t j = 0; j <= i; ++j) replay(logs[j], first + j, metrics);
      std::rethrow_exception(logs[i].error);
    }
#ifndef NDEBUG
    contract.check_block(logs, first, count);
#endif
    for (std::uint64_t i = 0; i < count; ++i) replay(logs[i], first + i, metrics);
  };

  auto& buffers = log_buffers();
  PoolLease lease(num_warps);
  if (lease.pool() == nullptr) {
    // One warp at a time, probing the caches as the warp runs; the replay
    // then adds only the warp's counters.
    if (buffers[0].empty()) buffers[0].resize(1);
    WarpLog& log = buffers[0][0];
    for (std::uint64_t w = 0; w < num_warps; ++w) {
      run_warp(kernel, w, log, &metrics);
      replay_logs(&log, w, 1);
    }
    return metrics;
  }

  for (auto& logs : buffers) {
    if (logs.size() < kBlockWarps) logs.resize(kBlockWarps);
  }
  WarpLog* const buffer_data[kBuffers] = {buffers[0].data(), buffers[1].data()};
  auto job = std::make_shared<Job>(
      [this, &kernel, &buffer_data, num_warps](std::uint64_t grain) {
        const std::uint64_t block = grain / kBlockGrains;
        WarpLog* logs = buffer_data[block % kBuffers];
        const std::uint64_t end = std::min(num_warps, (grain + 1) * kGrainWarps);
        for (std::uint64_t w = grain * kGrainWarps; w < end; ++w) {
          run_warp(kernel, w, logs[w - block * kBlockWarps], nullptr);
        }
      },
      num_warps);
  // However the launch ends, no thread runs the kernel after it.
  struct Drain {
    Job& job;
    ~Drain() { job.drain(); }
  } drain{*job};
  lease.pool()->start(job);

  // The pool runs ahead by at most one block while the launching thread
  // replays, and the launching thread helps with the functional phase of
  // block b before it replays b.
  for (std::uint64_t b = 0; b < job->blocks(); ++b) {
    job->complete(b);
    replay_logs(buffer_data[b % kBuffers], b * kBlockWarps, job->block_warps(b));
    job->replayed(b);
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
    mem_cycles += probe(warp, sm, r.kind, r.mask, line, r.count, m);
    line += r.count;
  }

  m.sm_compute_cycles[sm] += log.compute_cycles;
  m.sm_mem_cycles[sm] += mem_cycles;
  m.sm_resident_warps[sm] += 1;
  ++m.warps;
}

std::uint64_t Device::probe(std::uint64_t warp, unsigned sm, TraceEventKind kind,
                            LaneMask mask, const std::uint64_t* lines, std::uint32_t count,
                            KernelMetrics& m) {
  // The warp's access completes when its slowest line is served;
  // additional transactions serialize in the load/store unit.
  std::uint64_t worst_latency = 0;
  ServedBy worst_level = ServedBy::kNone;
  for (const std::uint64_t* line = lines; line != lines + count; ++line) {
    std::uint64_t lat;
    ServedBy level;
    // Line addresses of constant space retain the kConstBase tag, so the
    // two spaces never alias in the shared L2.
    if (*line >= kConstBase / spec_.line_bytes) {
      if (const_[sm].access(*line)) {
        ++m.const_hits;
        lat = spec_.lat_const;
        level = ServedBy::kConst;
      } else if (l2_.access(*line)) {
        ++m.l2_hits;
        lat = spec_.lat_l2;
        level = ServedBy::kL2;
      } else {
        ++m.dram_transactions;
        lat = spec_.lat_dram;
        level = ServedBy::kDram;
      }
    } else {
      if (readonly_[sm].access(*line)) {
        ++m.readonly_hits;
        lat = spec_.lat_readonly;
        level = ServedBy::kReadOnly;
      } else if (l2_.access(*line)) {
        ++m.l2_hits;
        lat = spec_.lat_l2;
        level = ServedBy::kL2;
      } else {
        ++m.dram_transactions;
        lat = spec_.lat_dram;
        level = ServedBy::kDram;
      }
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
    log_.records.push_back({TraceEventKind::kCompute, active, steps});
  }
}

void WarpCtx::touch(LaneMask active, std::span<const std::uint64_t> addrs,
                    unsigned bytes_per_lane) {
  account_access(active, addrs, bytes_per_lane, TraceEventKind::kLoad);
}

void WarpCtx::account_access(LaneMask active, std::span<const std::uint64_t> addrs,
                             unsigned bytes_per_lane, TraceEventKind kind) {
  if (active == 0) return;
  const LineSet lines = coalesce(addrs, active, bytes_per_lane, device_.spec_.line_bytes);
  HARMONIA_DCHECK(!lines.empty());

  ++log_.loads;
  if (lines.size() > 1) ++log_.divergent_loads;
  log_.transactions += lines.size();
  const auto count = static_cast<std::uint32_t>(lines.size());
  if (probe_now_ != nullptr) {
    log_.mem_cycles +=
        device_.probe(warp_id_, sm_id_, kind, active, lines.begin(), count, *probe_now_);
  } else {
    log_.records.push_back({kind, active, count});
    log_.lines.insert(log_.lines.end(), lines.begin(), lines.end());
  }
#ifndef NDEBUG
  auto& ranges = kind == TraceEventKind::kStore ? log_.writes : log_.reads;
  for (unsigned lane = 0; lane < addrs.size(); ++lane) {
    if (lane_active(active, lane)) ranges.emplace_back(addrs[lane], bytes_per_lane);
  }
#endif
}

}  // namespace harmonia::gpusim
