#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/expect.hpp"

namespace e2e {

namespace {

constexpr Clock V = Clock::kVirtual;
constexpr Clock W = Clock::kWall;
constexpr Clock C = Clock::kCount;
constexpr Better LO = Better::kLower;
constexpr Better HI = Better::kHigher;

}  // namespace

const char* to_string(Clock clock) {
  switch (clock) {
    case Clock::kVirtual:
      return "virtual";
    case Clock::kWall:
      return "wall";
    case Clock::kCount:
      return "count";
  }
  return "?";
}

const std::vector<MetricDef>& catalogue() {
  static const std::vector<MetricDef> defs = {
      // End to end (untraced run).
      {"setup_s", "s", W, LO, false},
      {"wall_qps", "1/s", W, HI, false},
      {"peak_rss_mb", "MB", W, LO, false},
      {"virtual_mqs", "Mq/s", V, HI, false},
      {"p50_us", "us", V, LO, false},
      {"p99_us", "us", V, LO, false},

      // serve: batch_scheduler, read at the nominal rung.
      {"serve.queue_delay_p50_us", "us", V, LO, true},
      {"serve.queue_delay_p99_us", "us", V, LO, true},
      {"serve.batch_size_mean", "requests", V, HI, true},
      {"serve.batches", "count", C, LO, true},
      {"serve.device_busy_frac", "frac", V, LO, true},
      {"serve.dropped", "count", C, LO, true},
      {"serve.shed", "count", C, LO, true},
      {"serve.max_rate_mqs", "Mq/s", V, HI, true},
      {"lat.point_p50_us", "us", V, LO, true},
      {"lat.point_p99_us", "us", V, LO, true},
      {"lat.range_p99_us", "us", V, LO, true},
      {"lat.update_p99_us", "us", V, LO, true},

      // serve: epoch_updater, nominal rung.
      {"epoch.count", "count", C, LO, true},
      {"epoch.patch_count", "count", C, HI, true},
      {"epoch.compaction_count", "count", C, LO, true},
      {"epoch.build_ms", "ms", V, LO, true},
      {"epoch.upload_ms", "ms", V, LO, true},
      {"epoch.swap_wait_ms", "ms", V, LO, true},
      {"epoch.stall_ms", "ms", V, LO, true},
      {"epoch.ops_applied", "count", C, HI, true},
      {"epoch.ops_failed", "count", C, LO, true},

      // harmonia search + gpusim.
      {"search.wall_ns_per_query", "ns", W, LO, true},
      {"search.kernel_ns_per_query", "ns", V, LO, true},
      {"search.global_txn_per_query", "txn", V, LO, true},
      {"search.dram_txn_per_query", "txn", V, LO, true},
      {"search.l2_hit_frac", "frac", V, HI, true},
      {"search.memory_divergence", "frac", V, LO, true},
      {"search.warp_coherence", "frac", V, HI, true},
      {"search.steps_per_warp_level", "steps", V, LO, true},
      {"ntg.group_size", "lanes", V, LO, true},

      // harmonia psa + sort.
      {"psa.sort_bits", "bits", V, LO, true},
      {"psa.sort_passes", "count", V, LO, true},
      {"psa.sort_share", "frac", V, LO, true},
      {"sort.wall_ns_per_key", "ns", W, LO, true},

      // harmonia range.
      {"range.wall_ns_per_request", "ns", W, LO, true},
      {"range.txn_per_result", "txn", V, LO, true},

      // harmonia update (Algorithm 1 + incremental patch path).
      {"update.wall_us_per_op", "us", W, LO, true},
      {"update.patch_wall_us_per_op", "us", W, LO, true},
      {"update.fine_path_frac", "frac", C, HI, true},
      {"update.coarse_retries", "count", C, LO, true},
      {"update.moved_slots_per_op", "slots", C, LO, true},
      {"update.aux_nodes", "count", C, LO, true},
      {"update.modeled_over_measured", "ratio", W, HI, true},
      {"update.patch_modeled_over_measured", "ratio", W, HI, true},
      {"image.patch_bytes_per_epoch", "B", C, LO, true},
      {"image.sync_wall_ms", "ms", W, LO, true},

      // persist + fault (checksum).
      {"persist.log_append_us_per_batch", "us", W, LO, true},
      {"persist.log_bytes_per_op", "B", C, LO, true},
      {"persist.snapshot_write_ms", "ms", W, LO, true},
      {"persist.snapshot_mb", "MB", C, LO, true},
      {"persist.snapshots_written", "count", C, LO, true},
      {"persist.log_batches", "count", C, LO, true},
      {"persist.write_amp", "ratio", C, LO, true},
      {"crc.mb_per_s", "MB/s", W, HI, true},

      // shard.
      {"shard.load_max_over_mean", "ratio", C, LO, true},
      {"shard.split_range_frac", "frac", C, LO, true},
      {"shard.search_wall_ns_per_query", "ns", W, LO, true},

      // setup: queries (keygen), harmonia build, device_image upload.
      {"setup.keygen_s", "s", W, LO, true},
      {"setup.bulk_load_s", "s", W, LO, true},
      {"setup.upload_s", "s", W, LO, true},
      {"setup.ntg_profile_s", "s", W, LO, true},

      // The benchmark itself.
      {"verify_s", "s", W, LO, true},
      {"trace.overhead_frac", "frac", W, LO, true},
  };
  return defs;
}

const MetricDef& metric_def(const std::string& name) {
  for (const MetricDef& d : catalogue()) {
    if (name == d.name) return d;
  }
  HARMONIA_CHECK_MSG(false, "undeclared metric " << name);
  return catalogue().front();  // unreachable
}

void RepValues::put(const std::string& name, double value, std::uint64_t n) {
  metric_def(name);
  values_[name] = Sample{value, n};
}

Quartiles quartiles(std::vector<double> xs) {
  HARMONIA_CHECK(!xs.empty());
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  Quartiles q;
  q.median = n % 2 == 1 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
  if (n == 1) {
    q.q1 = q.q3 = xs[0];
    return q;
  }
  const auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0;
  };
  q.q1 = cut(1);
  q.q3 = cut(3);
  return q;
}

std::vector<Aggregate> aggregate(const std::vector<RepValues>& reps) {
  std::vector<Aggregate> out;
  for (const MetricDef& d : catalogue()) {
    Aggregate a;
    a.def = &d;
    for (const RepValues& r : reps) {
      const auto it = r.values().find(d.name);
      if (it == r.values().end()) continue;
      a.values.push_back(it->second.value);
      a.n += it->second.n;
    }
    if (a.values.empty()) continue;
    a.q = quartiles(a.values);
    out.push_back(std::move(a));
  }
  return out;
}

std::vector<std::string> virtual_mismatches(const RepValues& a, const RepValues& b) {
  std::vector<std::string> out;
  for (const auto& [name, sa] : a.values()) {
    if (metric_def(name).clock == Clock::kWall) continue;
    const auto it = b.values().find(name);
    if (it == b.values().end()) continue;
    if (sa.value != it->second.value || sa.n != it->second.n) out.push_back(name);
  }
  return out;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

}  // namespace e2e
