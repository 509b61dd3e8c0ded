// End-to-end observability: the metrics half (see obs/trace.hpp for the
// request-lifecycle tracing half).
//
// A MetricsRegistry holds named counters, gauges, and fixed-bucket
// latency histograms. Registration (name -> instrument) takes a mutex —
// that is the cold path, done once when a serving layer attaches an
// Observer. Every instrument handed out has a stable address, so the hot
// path (a batch dispatch, a per-request completion) is a relaxed atomic
// add on a cached pointer: no lock, no lookup, no allocation.
//
// Names follow the Prometheus convention, including inline labels:
//   serve_batches_total{kind="point"}
// The registry treats the whole string as the key; the text exporter
// groups families (the part before '{') for # TYPE lines and emits
// metrics sorted by name, so a dump is byte-deterministic for a given
// set of counter values — which is what the CI metrics-determinism gate
// diffs.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace harmonia::obs {

/// Shortest round-trip-exact decimal for a double: the one number format
/// of the metrics and trace exporters, which keeps every dump
/// byte-deterministic.
std::string format_double(double x);

/// Monotone event count. Relaxed increments: per-instrument totals are
/// exact, cross-instrument ordering is not promised (nor needed).
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written (or accumulated) double, e.g. queue depth or summed
/// barrier-wait seconds.
class Gauge {
 public:
  void set(double x) { v_.store(x, std::memory_order_relaxed); }
  void add(double dx) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + dx, std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket latency histogram with *explicit* under/overflow buckets:
/// a sample below edges.front() or at/above edges.back() is counted apart
/// from the edge buckets instead of silently clamped into them — tail
/// readings must never absorb out-of-range samples invisibly.
///
/// Bucket i spans [edge(i), edge(i+1)); observe() is lock-free (one
/// relaxed atomic add picked by binary search over the fixed edges).
class LatencyHistogram {
 public:
  /// `edges` are the bucket boundaries, strictly ascending, size >= 2
  /// (defining size-1 buckets).
  explicit LatencyHistogram(std::vector<double> edges);

  void observe(double x);

  std::size_t bucket_count() const { return counts_.size(); }
  std::uint64_t bucket(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  double edge(std::size_t i) const { return edges_[i]; }
  std::uint64_t underflow() const { return underflow_.load(std::memory_order_relaxed); }
  std::uint64_t overflow() const { return overflow_.load(std::memory_order_relaxed); }
  /// All samples observed, in-range or not.
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Exponentially spaced edges from lo to hi (inclusive), n buckets —
  /// the natural grid for latencies spanning decades.
  static std::vector<double> exponential_edges(double lo, double hi, std::size_t n);

 private:
  std::vector<double> edges_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> underflow_{0};
  std::atomic<std::uint64_t> overflow_{0};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

class MetricsRegistry {
 public:
  /// Registration: returns the instrument registered under `name`,
  /// creating it on first use. The reference stays valid for the
  /// registry's lifetime — cache it and increment lock-free.
  /// A name must keep one instrument kind for the registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// On first registration the histogram is created with `edges`;
  /// later calls return the existing instrument (edges ignored).
  LatencyHistogram& histogram(const std::string& name, std::vector<double> edges);

  /// Prometheus text exposition: families sorted by name, one # TYPE line
  /// per family, histogram buckets as cumulative `le` series plus
  /// explicit `<name>_underflow_total` / `<name>_overflow_total`.
  /// Byte-deterministic in the registry contents.
  std::string prometheus_text() const;

 private:
  struct Entry {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyHistogram> histogram;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

}  // namespace harmonia::obs
