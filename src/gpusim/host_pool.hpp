// The process-wide pool of host threads behind gpusim's parallel work:
// the warps a pooled launch runs ahead of its launching thread
// (Device::launch) and
// data-parallel host loops such as PSA's chunked radix sort
// (sort/radix_sort.hpp). One launching thread holds the pool at a time,
// through a PoolLease; a thread that cannot lease it does the work
// alone, so results never depend on who holds it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

namespace harmonia::gpusim {

/// Work the pool's threads share: each worker calls work() once per
/// start(), and work() returns when nothing is left for it to claim. A
/// worker may call it late, after the work is done, so work() must then
/// return without running anything.
class PoolWork {
 public:
  virtual ~PoolWork() = default;
  virtual void work() = 0;
};

/// One round of a polling loop, for the pool's waits on another thread:
/// a short run of CPU pauses, and on every fourth round a yield, so that
/// a runnable thread of another process can take the CPU. A loop of bare
/// yields noticed a change 0.3-0.6 ms late on a 4-vCPU VM, against a few
/// microseconds with pauses between the yields (docs/perf_log.md).
class SpinWait {
 public:
  void operator()();

 private:
  unsigned rounds_ = 0;
};

class HostPool;

/// Holds the pool for one piece of work of `size` units (warps, keys) if
/// it has at least `min_size` units, the pool has workers and no other
/// thread holds it. Otherwise the calling thread does the work itself.
class PoolLease {
 public:
  PoolLease(std::uint64_t size, std::uint64_t min_size);
  ~PoolLease();
  PoolLease(const PoolLease&) = delete;
  PoolLease& operator=(const PoolLease&) = delete;

  bool held() const { return pool_ != nullptr; }
  /// Threads the work runs on, the calling thread included: the pool's
  /// size (every CPU of the affinity mask) if held, else 1.
  unsigned threads() const;

  /// Hands `work` to the pool's workers and returns; held leases only.
  void start(std::shared_ptr<PoolWork> work);

  /// Runs task(i) for every i in [0, n) and returns when all are done:
  /// spread over the pool if held, else in order on the calling thread.
  /// The tasks must not depend on which thread runs them. If a task
  /// throws, the first exception caught is rethrown once all are done.
  template <class Task>
  void run(unsigned n, Task&& task) {
    if (pool_ == nullptr || n <= 1) {
      for (unsigned i = 0; i < n; ++i) task(i);
      return;
    }
    // A reference wrapper: the std::function allocates nothing.
    run_pooled(n, std::ref(task));
  }

 private:
  void run_pooled(unsigned n, const std::function<void(unsigned)>& task);

  HostPool* pool_ = nullptr;
};

}  // namespace harmonia::gpusim
