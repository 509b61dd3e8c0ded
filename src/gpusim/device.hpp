// The simulated GPU device and the SIMT warp execution context.
//
// Kernels are written as per-warp C++ callables against WarpCtx, a
// warp-synchronous API: every data access goes through gather()/touch()/
// scatter() as a list of rows (LaneRow: a run of lanes reading consecutive
// elements; the coalescer turns the rows into cache lines and feeds them
// to the cache hierarchy), and every instruction issue goes through
// compute() with an explicit active-lane mask (which feeds the
// warp-coherence metric). This keeps simulated kernels structurally
// identical to their CUDA counterparts while making divergence and memory
// behaviour observable.
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

  /// Warp-wide load of one instruction: coalesces the rows, probes the
  /// caches with the lines (at once when the launching thread runs the
  /// warp, else in the replay; either charges the memory cycles), and
  /// reads each row's elements into `out[lane]` for the lanes it covers
  /// (other lanes untouched). The active mask is the rows' lanes. No rows
  /// is no access. A row outside the memory in use throws.
  template <typename T>
  void gather(std::span<const LaneRow> rows, std::span<T> out);

  /// Accounting-only warp load (no data movement) for accesses whose
  /// values the kernel computes another way.
  void touch(std::span<const LaneRow> rows, unsigned bytes_per_lane);

  /// In-place view of `count` elements at `addr`, for a kernel that reads
  /// values its touch() calls account for. Accounts nothing; a range
  /// outside the memory in use throws.
  template <typename T>
  std::span<const T> view(std::uint64_t addr, std::uint64_t count) const;

  /// Warp-wide store (values[lane] to each covered lane's address). A
  /// broadcast row throws: lanes cannot all store one element.
  template <typename T>
  void scatter(std::span<const LaneRow> rows, std::span<const T> values);

 private:
  friend class Device;
  WarpCtx(Device& device, std::uint64_t warp_id, unsigned sm_id, WarpLog& log,
          KernelMetrics* probe_now)
      : device_(device), warp_id_(warp_id), sm_id_(sm_id), log_(log), probe_now_(probe_now) {}

  /// Coalesces a warp access and probes the caches with its lines now, or
  /// appends them to this warp's log for the replay.
  void account_access(std::span<const LaneRow> rows, unsigned bytes_per_lane,
                      TraceEventKind kind);

  Device& device_;
  std::uint64_t warp_id_;
  unsigned sm_id_;
  WarpLog& log_;
  /// Set when the launching thread runs the warp: accesses then probe the
  /// caches (and trace) as they happen, into these metrics.
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
  /// In a launch of 64 warps or more, a process-wide pool of host threads
  /// runs warps ahead of the calling thread, so the kernel may be called
  /// from several threads at once: within one launch no warp may read
  /// what another warp wrote, and host state the kernel captures by
  /// reference must be written per warp. The caches are probed serially
  /// in warp-id order all the same, so metrics, cache state and trace
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
  /// access's cycles. A `repeat` access (logged warps only) has the lines
  /// of the same warp's previous access, at most cache_ways of them: each
  /// is then a first-level hit, and is charged as one without a probe,
  /// since probing the same distinct lines in the same order again leaves
  /// every LRU set as it is.
  std::uint64_t probe(std::uint64_t warp, unsigned sm, TraceEventKind kind, LaneMask mask,
                      const std::uint64_t* lines, std::uint32_t count, bool repeat,
                      KernelMetrics& metrics);

  DeviceSpec spec_;
  Memory memory_;
  Cache l2_;
  std::vector<Cache> readonly_;  // one per SM
  std::vector<Cache> const_;     // one per SM
  Trace trace_;
};

// ---- template implementations ----

template <typename T>
void WarpCtx::gather(std::span<const LaneRow> rows, std::span<T> out) {
  account_access(rows, sizeof(T), TraceEventKind::kLoad);
  for (const LaneRow& r : rows) {
    HARMONIA_DCHECK(r.lane + r.count <= out.size());
    if (r.broadcast) {
      device_.memory().read_broadcast(r.addr, r.count, &out[r.lane]);
    } else {
      device_.memory().read_row(r.addr, r.count, &out[r.lane]);
    }
  }
}

template <typename T>
std::span<const T> WarpCtx::view(std::uint64_t addr, std::uint64_t count) const {
  return device_.memory().view(DevPtr<T>{addr}, count);
}

template <typename T>
void WarpCtx::scatter(std::span<const LaneRow> rows, std::span<const T> values) {
  // On in release builds too: a store has no broadcast form.
  for (const LaneRow& r : rows) {
    HARMONIA_CHECK_MSG(!r.broadcast, "a broadcast row cannot store");
  }
  account_access(rows, sizeof(T), TraceEventKind::kStore);
  for (const LaneRow& r : rows) {
    HARMONIA_DCHECK(r.lane + r.count <= values.size());
    device_.memory().write_row(r.addr, r.count, &values[r.lane]);
  }
}

}  // namespace harmonia::gpusim
