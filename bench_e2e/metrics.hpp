// The benchmark's metric catalogue and the per-repetition sample store.
//
// Every number the benchmark prints is declared once here, with its
// unit, its clock and its direction. Three clocks:
//   virtual : gpusim cycles, modeled PCIe and modeled CPU apply — they
//             repeat bit-exactly for a seed, so any change is a change in
//             the simulated system;
//   wall    : host time of the simulator and host code — noisy;
//   count   : exact tallies.
// BENCHMARK.json must declare the same names and units; run.py's smoke
// self-test checks the two against each other.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

enum class Clock { kVirtual, kWall, kCount };
enum class Better { kLower, kHigher };

const char* to_string(Clock clock);

struct MetricDef {
  const char* name;
  const char* unit;
  Clock clock;
  Better better;
  /// Emitted only by the traced run (the untraced run gives end-to-end).
  bool per_layer;
};

/// Every metric, end-to-end first, in output order.
const std::vector<MetricDef>& catalogue();
/// Throws harmonia::ContractViolation for an undeclared name.
const MetricDef& metric_def(const std::string& name);

/// One repetition's reading of a metric. `n` is the number of samples
/// behind it (the latency count under a percentile; 1 for a total).
struct Sample {
  double value = 0.0;
  std::uint64_t n = 1;
};

/// One repetition: metric name -> reading.
class RepValues {
 public:
  /// Records a declared metric (undeclared names throw).
  void put(const std::string& name, double value, std::uint64_t n = 1);
  const std::map<std::string, Sample>& values() const { return values_; }

 private:
  std::map<std::string, Sample> values_;
};

/// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
/// method), so the benchmark's quartiles match the ones a reader computes
/// from the same samples. A single sample is its own quartiles.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Quartiles quartiles(std::vector<double> xs);

/// A metric aggregated over repetitions.
struct Aggregate {
  const MetricDef* def = nullptr;
  std::vector<double> values;
  std::uint64_t n = 0;
  Quartiles q;
};

/// Folds repetitions into per-metric aggregates, in catalogue order.
std::vector<Aggregate> aggregate(const std::vector<RepValues>& reps);

/// Names of virtual and count metrics whose readings differ between two
/// repetitions of the same inputs (must be empty: the simulator is
/// deterministic and tracing must not perturb it).
std::vector<std::string> virtual_mismatches(const RepValues& a, const RepValues& b);

/// Minimal JSON emission helpers (doubles with all 17 significant digits).
std::string json_string(const std::string& s);
std::string json_number(double x);

}  // namespace e2e
