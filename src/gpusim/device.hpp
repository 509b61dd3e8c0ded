// The simulated GPU device and the SIMT warp execution context.
//
// Kernels are written as per-warp C++ callables against WarpCtx, a
// warp-synchronous API: every data access goes through gather()/touch()
// (which runs the coalescer and feeds the lines to the cache hierarchy),
// and every instruction issue goes through compute() with an explicit
// active-lane mask (which feeds the warp-coherence metric). This keeps
// simulated kernels structurally identical to their CUDA counterparts
// while making divergence and memory behaviour observable.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "gpusim/cache.hpp"
#include "gpusim/coalescer.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/lane_mask.hpp"
#include "gpusim/memory.hpp"
#include "gpusim/metrics.hpp"
#include "gpusim/trace.hpp"

namespace harmonia::gpusim {

class Device;
struct WarpLog;

/// Execution context handed to a kernel, one per warp. Not copyable; only
/// Device::launch creates these.
class WarpCtx {
 public:
  WarpCtx(const WarpCtx&) = delete;
  WarpCtx& operator=(const WarpCtx&) = delete;

  std::uint64_t warp_id() const { return warp_id_; }
  unsigned sm_id() const { return sm_id_; }
  unsigned warp_size() const;
  const DeviceSpec& spec() const;

  /// Issues `steps` SIMT instruction steps with the given active mask.
  /// A step is coherent iff every lane of the warp is active.
  void compute(LaneMask active, unsigned steps = 1);

  /// Warp-wide load: coalesces the active lanes' addresses, probes the
  /// caches with the lines (at once when the launch runs on the calling
  /// thread, else in the replay; either charges the memory cycles), and
  /// reads the data into `out[lane]` for each active lane (inactive lanes
  /// untouched).
  template <typename T>
  void gather(LaneMask active, std::span<const std::uint64_t> addrs, std::span<T> out);

  /// Accounting-only warp load (no data movement) for accesses whose
  /// values the kernel computes another way.
  void touch(LaneMask active, std::span<const std::uint64_t> addrs, unsigned bytes_per_lane);

  /// Warp-wide store to global memory (one value per active lane).
  template <typename T>
  void scatter(LaneMask active, std::span<const std::uint64_t> addrs,
               std::span<const T> values);

 private:
  friend class Device;
  WarpCtx(Device& device, std::uint64_t warp_id, unsigned sm_id, WarpLog& log,
          KernelMetrics* probe_now)
      : device_(device), warp_id_(warp_id), sm_id_(sm_id), log_(log), probe_now_(probe_now) {}

  /// Coalesces a warp access and probes the caches with its lines now, or
  /// appends them to this warp's log for the replay.
  void account_access(LaneMask active, std::span<const std::uint64_t> addrs,
                      unsigned bytes_per_lane, TraceEventKind kind);

  Device& device_;
  std::uint64_t warp_id_;
  unsigned sm_id_;
  WarpLog& log_;
  /// Set when warps run one at a time on the launching thread: accesses
  /// then probe the caches (and trace) as they happen, into these metrics.
  KernelMetrics* probe_now_;
};

using WarpKernel = std::function<void(WarpCtx&)>;

class Device {
 public:
  explicit Device(DeviceSpec spec);

  const DeviceSpec& spec() const { return spec_; }
  Memory& memory() { return memory_; }
  const Memory& memory() const { return memory_; }

  /// Runs `kernel` once per warp. Warps are assigned to SMs round-robin.
  /// A launch of 4096 warps or more runs in blocks on a process-wide pool
  /// of host threads, so the kernel may be called from several threads at
  /// once (a smaller launch runs on the calling thread): within one launch
  /// no warp may read what another warp wrote, and host state the kernel
  /// captures by reference must be written per warp. The caches are then
  /// probed serially in warp-id order, so metrics, cache state and trace
  /// equal a one-warp-at-a-time run (the cycle model, not execution order,
  /// supplies concurrency — see DESIGN.md §5 and docs/gpusim.md). If warps
  /// throw, the exception of the lowest warp id is rethrown.
  KernelMetrics launch(std::uint64_t num_warps, const WarpKernel& kernel);

  /// Empties all caches (between unrelated experiments).
  void flush_caches();

  Cache& l2() { return l2_; }
  Cache& readonly_cache(unsigned sm);
  Cache& const_cache(unsigned sm);

  /// Per-warp execution trace (off by default; see gpusim/trace.hpp).
  Trace& trace() { return trace_; }

 private:
  friend class WarpCtx;

  /// Functional phase of one warp: runs the kernel into `log`, probing
  /// the caches at once if `probe_now` is set.
  void run_warp(const WarpKernel& kernel, std::uint64_t warp, WarpLog& log,
                KernelMetrics* probe_now);
  /// Replay phase of one warp: probes the caches with its logged lines and
  /// adds its counters, cycles and trace events to `metrics`.
  void replay(const WarpLog& log, std::uint64_t warp, KernelMetrics& metrics);
  /// Probes the caches with one access's lines, in order, counts the hits
  /// and DRAM transactions, records the trace event and returns the
  /// access's cycles.
  std::uint64_t probe(std::uint64_t warp, unsigned sm, TraceEventKind kind, LaneMask mask,
                      const std::uint64_t* lines, std::uint32_t count, KernelMetrics& metrics);

  DeviceSpec spec_;
  Memory memory_;
  Cache l2_;
  std::vector<Cache> readonly_;  // one per SM
  std::vector<Cache> const_;     // one per SM
  Trace trace_;
};

// ---- template implementations ----

template <typename T>
void WarpCtx::gather(LaneMask active, std::span<const std::uint64_t> addrs,
                     std::span<T> out) {
  HARMONIA_DCHECK(addrs.size() <= warp_size());
  HARMONIA_DCHECK(out.size() >= addrs.size());
  account_access(active, addrs, sizeof(T), TraceEventKind::kLoad);
  for (unsigned lane = 0; lane < addrs.size(); ++lane) {
    if (lane_active(active, lane)) out[lane] = device_.memory().read<T>(addrs[lane]);
  }
}

template <typename T>
void WarpCtx::scatter(LaneMask active, std::span<const std::uint64_t> addrs,
                      std::span<const T> values) {
  HARMONIA_DCHECK(addrs.size() <= warp_size());
  account_access(active, addrs, sizeof(T), TraceEventKind::kStore);
  for (unsigned lane = 0; lane < addrs.size(); ++lane) {
    if (lane_active(active, lane)) device_.memory().write<T>(addrs[lane], values[lane]);
  }
}

}  // namespace harmonia::gpusim
