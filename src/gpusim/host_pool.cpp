#include "gpusim/host_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/expect.hpp"

#ifdef __linux__
#include <sched.h>
#endif

namespace harmonia::gpusim {

namespace {

/// How long a worker keeps polling for the next piece of work (SpinWait)
/// before it sleeps on a futex. A sleeping worker reached a serving
/// launch 0.5-2 ms after the wake, about a serving launch's whole length,
/// and a polling one in a few microseconds. The gap between two serving
/// launches is mostly 0.25-1 ms (docs/perf_log.md).
constexpr auto kSpinBeforeSleep = std::chrono::milliseconds(1);

/// Threads the pool runs on, the leasing thread included: every CPU of
/// this process's affinity mask, so `taskset -c 0` gives no pool.
unsigned pool_threads() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

/// PoolLease::run's work: tasks claimed in index order by whichever
/// thread asks next.
class Tasks final : public PoolWork {
 public:
  Tasks(unsigned n, const std::function<void(unsigned)>& task) : n_(n), task_(task) {}

  void work() override {
    for (;;) {
      const unsigned i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= n_) return;
      try {
        task_(i);
      } catch (...) {
        std::lock_guard lock(mutex_);
        if (!error_) error_ = std::current_exception();
      }
      if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) done_.notify_all();
    }
  }

  /// Waits until every task has run, then rethrows the first error. No
  /// thread calls the task afterwards: every index has been claimed.
  void wait() {
    for (unsigned done = done_.load(std::memory_order_acquire); done < n_;
         done = done_.load(std::memory_order_acquire)) {
      done_.wait(done, std::memory_order_acquire);
    }
    if (error_) std::rethrow_exception(error_);
  }

 private:
  const unsigned n_;
  const std::function<void(unsigned)>& task_;
  std::atomic<unsigned> next_{0};
  std::atomic<unsigned> done_{0};
  std::mutex mutex_;
  std::exception_ptr error_;  // guarded by mutex_
};

}  // namespace

/// pool_threads() workers less one for the leasing thread, which works
/// too. Between pieces of work a worker polls for kSpinBeforeSleep, then
/// sleeps until the next start(); the leasing thread never waits for a
/// worker that has not claimed anything.
class HostPool {
 public:
  static HostPool& instance() {
    static HostPool pool(pool_threads());
    return pool;
  }

  unsigned size() const { return static_cast<unsigned>(workers_.size()) + 1; }

  bool try_acquire() { return !held_.exchange(true, std::memory_order_acquire); }
  void release() { held_.store(false, std::memory_order_release); }

  void start(std::shared_ptr<PoolWork> work) {
    {
      std::lock_guard lock(mutex_);
      work_ = std::move(work);
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

  /// Returns once generation_ has moved past `seen`.
  void await(std::uint32_t seen) {
    const auto sleep_at = std::chrono::steady_clock::now() + kSpinBeforeSleep;
    SpinWait spin;
    while (generation_.load(std::memory_order_acquire) == seen) {
      if (std::chrono::steady_clock::now() >= sleep_at) {
        generation_.wait(seen, std::memory_order_acquire);
        return;
      }
      spin();
    }
  }

  void work() {
    std::uint32_t seen = 0;
    for (;;) {
      await(seen);
      seen = generation_.load(std::memory_order_acquire);
      if (stop_.load()) return;
      std::shared_ptr<PoolWork> work;
      {
        std::lock_guard lock(mutex_);
        work = work_;
      }
      if (work) work->work();
    }
  }

  std::atomic<bool> held_{false};
  std::atomic<bool> stop_{false};
  /// Bumped once per start().
  std::atomic<std::uint32_t> generation_{0};
  std::mutex mutex_;
  std::shared_ptr<PoolWork> work_;  // guarded by mutex_
  // Last: the workers use every member above.
  std::vector<std::thread> workers_;
};

void SpinWait::operator()() {
  if (++rounds_ % 4 == 0) {
    std::this_thread::yield();
    return;
  }
  for (int i = 0; i < 64; ++i) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }
}

PoolLease::PoolLease(std::uint64_t size, std::uint64_t min_size) {
  if (size < min_size) return;
  HostPool& pool = HostPool::instance();
  if (pool.size() > 1 && pool.try_acquire()) pool_ = &pool;
}

PoolLease::~PoolLease() {
  if (pool_ != nullptr) pool_->release();
}

unsigned PoolLease::threads() const { return pool_ != nullptr ? pool_->size() : 1; }

void PoolLease::start(std::shared_ptr<PoolWork> work) {
  HARMONIA_CHECK(pool_ != nullptr);
  pool_->start(std::move(work));
}

void PoolLease::run_pooled(unsigned n, const std::function<void(unsigned)>& task) {
  auto tasks = std::make_shared<Tasks>(n, task);
  pool_->start(tasks);
  tasks->work();
  tasks->wait();
}

}  // namespace harmonia::gpusim
