#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/expect.hpp"

namespace harmonia {

void Summary::add(double x) {
  samples_.push_back(x);
  sum_ += x;
}

void Summary::add_all(std::span<const double> xs) {
  for (double x : xs) add(x);
}

double Summary::min() const {
  HARMONIA_CHECK(!samples_.empty());
  return *std::min_element(samples_.begin(), samples_.end());
}

double Summary::max() const {
  HARMONIA_CHECK(!samples_.empty());
  return *std::max_element(samples_.begin(), samples_.end());
}

double Summary::mean() const {
  HARMONIA_CHECK(!samples_.empty());
  return sum_ / static_cast<double>(samples_.size());
}

double Summary::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double x : samples_) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double Summary::percentile(double p) const {
  HARMONIA_CHECK(!samples_.empty());
  HARMONIA_CHECK(p >= 0.0 && p <= 100.0);
  // Sort an owned copy: the old lazy in-place sort mutated shared state
  // from a const method, a data race when several threads read the same
  // report concurrently.
  std::vector<double> sorted(samples_);
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace harmonia
