#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/expect.hpp"

namespace harmonia::obs {

std::string format_double(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  // Trim to the shortest representation that round-trips.
  for (int prec = 1; prec < 17; ++prec) {
    char probe[64];
    std::snprintf(probe, sizeof probe, "%.*g", prec, x);
    double back = 0.0;
    std::sscanf(probe, "%lf", &back);
    if (back == x) return probe;
  }
  return buf;
}

namespace {

std::string family_of(const std::string& name) {
  const auto brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

/// Splices a label into a possibly-labelled metric name:
///   f("x_seconds", "le=\"0.1\"") == "x_seconds{le=\"0.1\"}"
///   f("x{kind=\"a\"}", "le=\"0.1\"") == "x{kind=\"a\",le=\"0.1\"}"
std::string with_label(const std::string& name, const std::string& label) {
  const auto brace = name.find('{');
  if (brace == std::string::npos) return name + "{" + label + "}";
  std::string out = name;
  out.insert(out.size() - 1, "," + label);
  return out;
}

/// Appends a series suffix to the family part, keeping any label block last:
///   f("x_seconds", "_bucket") == "x_seconds_bucket"
///   f("x{kind=\"a\"}", "_sum") == "x_sum{kind=\"a\"}"
std::string suffixed(const std::string& name, const std::string& suffix) {
  const auto brace = name.find('{');
  if (brace == std::string::npos) return name + suffix;
  return name.substr(0, brace) + suffix + name.substr(brace);
}

}  // namespace

LatencyHistogram::LatencyHistogram(std::vector<double> edges)
    : edges_(std::move(edges)), counts_(edges_.empty() ? 0 : edges_.size() - 1) {
  HARMONIA_CHECK_MSG(edges_.size() >= 2, "a histogram needs at least one bucket");
  for (std::size_t i = 1; i < edges_.size(); ++i) {
    HARMONIA_CHECK_MSG(edges_[i - 1] < edges_[i],
                       "histogram edges must be strictly ascending");
  }
}

void LatencyHistogram::observe(double x) {
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + x, std::memory_order_relaxed)) {
  }
  if (x < edges_.front()) {
    underflow_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (x >= edges_.back()) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const auto it = std::upper_bound(edges_.begin(), edges_.end(), x);
  const auto i = static_cast<std::size_t>(it - edges_.begin()) - 1;
  counts_[i].fetch_add(1, std::memory_order_relaxed);
}

std::vector<double> LatencyHistogram::exponential_edges(double lo, double hi,
                                                        std::size_t n) {
  HARMONIA_CHECK(lo > 0.0 && hi > lo && n >= 1);
  std::vector<double> edges(n + 1);
  const double step = std::log(hi / lo) / static_cast<double>(n);
  for (std::size_t i = 0; i <= n; ++i)
    edges[i] = lo * std::exp(step * static_cast<double>(i));
  edges.front() = lo;
  edges.back() = hi;
  return edges;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mu_);
  Entry& e = entries_[name];
  HARMONIA_CHECK_MSG(!e.gauge && !e.histogram,
                     "metric '" << name << "' already registered with another kind");
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mu_);
  Entry& e = entries_[name];
  HARMONIA_CHECK_MSG(!e.counter && !e.histogram,
                     "metric '" << name << "' already registered with another kind");
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name,
                                             std::vector<double> edges) {
  std::lock_guard lock(mu_);
  Entry& e = entries_[name];
  HARMONIA_CHECK_MSG(!e.counter && !e.gauge,
                     "metric '" << name << "' already registered with another kind");
  if (!e.histogram) e.histogram = std::make_unique<LatencyHistogram>(std::move(edges));
  return *e.histogram;
}

std::string MetricsRegistry::prometheus_text() const {
  std::lock_guard lock(mu_);
  std::string out;
  std::string last_family;
  // std::map iteration is name-sorted, so families are contiguous and the
  // whole dump is deterministic.
  for (const auto& [name, e] : entries_) {
    const std::string family = family_of(name);
    if (family != last_family) {
      out += "# TYPE " + family;
      out += e.counter ? " counter" : (e.gauge ? " gauge" : " histogram");
      out += "\n";
      last_family = family;
    }
    if (e.counter) {
      out += name + " " + std::to_string(e.counter->value()) + "\n";
    } else if (e.gauge) {
      out += name + " " + format_double(e.gauge->value()) + "\n";
    } else {
      const LatencyHistogram& h = *e.histogram;
      // Cumulative `le` buckets; the underflow bucket (samples below the
      // lowest edge) is part of every cumulative count, per Prometheus
      // semantics, but is *also* exported explicitly below so tail
      // corruption can never hide in an edge bucket.
      const std::string bucket = suffixed(name, "_bucket");
      std::uint64_t cum = h.underflow();
      for (std::size_t i = 0; i < h.bucket_count(); ++i) {
        cum += h.bucket(i);
        out += with_label(bucket, "le=\"" + format_double(h.edge(i + 1)) + "\"") + " " +
               std::to_string(cum) + "\n";
      }
      out += with_label(bucket, "le=\"+Inf\"") + " " +
             std::to_string(h.count()) + "\n";
      out += suffixed(name, "_underflow_total") + " " +
             std::to_string(h.underflow()) + "\n";
      out += suffixed(name, "_overflow_total") + " " +
             std::to_string(h.overflow()) + "\n";
      out += suffixed(name, "_sum") + " " + format_double(h.sum()) + "\n";
      out += suffixed(name, "_count") + " " + std::to_string(h.count()) + "\n";
    }
  }
  return out;
}

}  // namespace harmonia::obs
