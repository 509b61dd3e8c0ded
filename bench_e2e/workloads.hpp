// The four workloads. Each builds its inputs from the seed, times only
// the calls into the public layer functions, and checks every answer.
//
//   batch_lookup        closed loop, the paper's phase-based Fig. 11 path
//   serve_read          open loop, uniform points on one device (rate ladder)
//   serve_mixed_sharded open loop, zipfian mixed traffic over 4 shards
//   serve_write_heavy   open loop, 75% updates, delta epochs + persistence
//
// Why each exists is in README.md and BENCHMARK.json.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"
#include "topology.hpp"

namespace e2e {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Tiny sizes for the ctest self-tests.
  bool smoke = false;
  /// Directory for this run's persistence files (created and removed).
  std::filesystem::path scratch;
};

struct RepResult {
  RepValues values;
  /// Requests (or lookups) issued.
  std::uint64_t attempted = 0;
  /// Requests answered dropped or shed.
  std::uint64_t refused = 0;
  std::uint64_t wrong = 0;
  /// Wall seconds spent inside the timed layer calls.
  double timed_wall = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Sets the system up kSetupRuns times (keeping the last), so set-up
  /// time is a median, not one reading.
  void warm_up(Spans& spans);

  /// One repetition over the same inputs. `traced` attaches the serving
  /// Observer, reads every per-layer metric and runs the host-wall probes.
  virtual RepResult run_rep(bool traced, Spans& spans) = 0;

  /// Every set-up so far: the warm-up plus the fresh set-up each
  /// repetition (serving: each rung) starts from.
  const std::vector<SetupTimes>& setups() const { return setups_; }
  /// Serving-layer metrics registry of the traced repetition.
  const harmonia::obs::MetricsRegistry& registry() const { return registry_; }
  /// Facts a reader of the result must know (flush policy, lateness, ...).
  virtual std::vector<std::string> notes() const = 0;

  static constexpr int kSetupRuns = 5;

 protected:
  explicit Workload(RunOptions options) : options_(std::move(options)) {}
  virtual unsigned log2_keys() const = 0;
  virtual unsigned shards() const { return 1; }
  /// Builds a fresh topology (recorded as one set-up sample).
  Topology& fresh_topology(Spans& spans);
  /// A topology no run has touched: the last set-up's, or a new one.
  /// Simulated device memory is a bump allocator, so every batch a run
  /// uploads shifts later allocations and with them the modeled cache
  /// behaviour; repetitions must start from an untouched set-up to
  /// replay bit-exactly.
  Topology& unused_topology(Spans& spans);

  RunOptions options_;
  std::unique_ptr<Topology> topo_;
  bool topo_used_ = false;
  std::vector<SetupTimes> setups_;
  harmonia::obs::MetricsRegistry registry_;
};

/// Throws harmonia::ContractViolation naming the choices on a bad name.
std::unique_ptr<Workload> make_workload(const RunOptions& options);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

}  // namespace e2e
