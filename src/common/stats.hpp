// Small statistics helpers used by the benchmark harness and tests.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace harmonia {

/// One-pass summary of a sample: count / min / max / mean / stddev.
/// Percentiles are computed from a retained copy of the sample.
class Summary {
 public:
  void add(double x);
  void add_all(std::span<const double> xs);

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double min() const;
  double max() const;
  double mean() const;
  double sum() const { return sum_; }
  /// Sample standard deviation (n-1 denominator); 0 for n < 2.
  double stddev() const;
  /// Linear-interpolated percentile, p in [0, 100]. Sorts an owned copy
  /// of the sample, so concurrent reads of a const Summary are race-free
  /// (reports are read from multiple threads under TSan in CI).
  double percentile(double p) const;

 private:
  std::vector<double> samples_;
  double sum_ = 0.0;
};

}  // namespace harmonia
