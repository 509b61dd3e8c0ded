// Host-wall spans recorded at the benchmark's own call sites:
// workload -> rep -> rung -> setup / run / verify / probe -> layer call.
//
// Spans stay in memory and are written once, at exit, as Chrome-trace
// JSON (load it in chrome://tracing or Perfetto). A span's self time is
// its duration minus the part its child spans cover; children nest
// strictly inside their parent because the benchmark is single-threaded.
// A disabled recorder (the untraced run) records nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace e2e {

class Spans {
 public:
  explicit Spans(bool enabled);

  /// Closes its span on destruction (RAII); inert when disabled.
  class Scope {
   public:
    Scope(Spans* spans, std::size_t index) : spans_(spans), index_(index) {}
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    std::size_t index_;
  };

  /// Opens a span as a child of the innermost open one.
  Scope open(std::string name);

  bool enabled() const { return enabled_; }
  void write_chrome_trace(std::ostream& os) const;
  /// Seconds of self time summed per span name.
  std::map<std::string, double> self_seconds() const;
  /// Seconds of total time summed per span name.
  std::map<std::string, double> total_seconds() const;

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr std::uint64_t kNoParent = 0;

  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = kNoParent;
    std::string name;
    double start = 0.0;
    double end = 0.0;
  };

  double now() const;
  void close(std::size_t index);

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace e2e
