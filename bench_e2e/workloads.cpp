#include "workloads.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "common/expect.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "oracle.hpp"
#include "persist/durability.hpp"
#include "probes.hpp"
#include "queries/workload.hpp"
#include "serve/workload.hpp"

namespace e2e {

using namespace harmonia;
using serve::RequestKind;
using serve::Response;

namespace {

/// Point p99 above which a rung no longer counts toward max_rate.
constexpr double kP99LimitSeconds = 300e-6;

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Runs an oracle check in a forked child and returns its wrong-answer
/// count. The oracle's memory (a key map of up to 2^21 entries) then never
/// shows in this process's peak RSS, which measures the serving stack
/// alone. The child only reads what the parent built, never returns into
/// the caller (even when the check throws), and is reaped before this
/// returns.
template <typename Check>
std::uint64_t verify_in_child(Check&& check) {
  int fds[2];
  HARMONIA_CHECK_MSG(::pipe(fds) == 0, "pipe failed");
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  HARMONIA_CHECK_MSG(pid >= 0, "fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    int code = 1;
    try {
      const std::uint64_t wrong = check();
      if (::write(fds[1], &wrong, sizeof wrong) == sizeof wrong) code = 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "oracle: %s\n", e.what());
    }
    std::fflush(nullptr);
    ::_exit(code);
  }
  ::close(fds[1]);
  std::uint64_t wrong = 0;
  const bool got = ::read(fds[0], &wrong, sizeof wrong) == sizeof wrong;
  ::close(fds[0]);
  int status = 0;
  const bool reaped = ::waitpid(pid, &status, 0) == pid;
  HARMONIA_CHECK_MSG(got && reaped && WIFEXITED(status) && WEXITSTATUS(status) == 0,
                     "oracle process failed");
  return wrong;
}

/// p50/p99 in microseconds, 0 for an empty sample.
double pct_us(const Summary& s, double p) { return s.empty() ? 0.0 : s.percentile(p) * 1e6; }

/// One rung's answered requests: latencies (seconds) by kind, and the
/// query span from the first arrival to the last query completion.
struct RungStats {
  Summary all, points, ranges, updates;
  /// Ranges and scans issued, answered or not.
  std::uint64_t range_requests = 0;
  double first_arrival = 0.0;
  double last_query = 0.0;

  RungStats(std::span<const serve::Request> stream, const serve::ServerReport& rep)
      : first_arrival(stream.front().arrival), last_query(first_arrival) {
    for (const Response& resp : rep.responses) {
      const bool ranged = resp.kind == RequestKind::kRange || resp.kind == RequestKind::kScan;
      range_requests += ranged ? 1 : 0;
      if (resp.dropped) continue;
      all.add(resp.latency());
      if (resp.kind == RequestKind::kUpdate) {
        updates.add(resp.latency());
        continue;
      }
      (ranged ? ranges : points).add(resp.latency());
      last_query = std::max(last_query, resp.completion);
    }
  }
  std::uint64_t completed_queries() const { return points.count() + ranges.count(); }
  double query_span() const { return last_query - first_arrival; }
};

/// The highest rate meeting the point-p99 limit with nothing refused:
/// linear between the last passing rung and the first failing one above
/// it, so the reading moves continuously with the latencies.
double max_rate(const std::vector<double>& rates, const std::vector<double>& p99s,
                const std::vector<bool>& refused) {
  for (std::size_t i = 0; i < rates.size(); ++i) {
    if (!refused[i] && p99s[i] <= kP99LimitSeconds) continue;
    if (i == 0) return 0.0;
    if (refused[i] || p99s[i] <= p99s[i - 1]) return rates[i - 1];
    return rates[i - 1] + (kP99LimitSeconds - p99s[i - 1]) / (p99s[i] - p99s[i - 1]) *
                              (rates[i] - rates[i - 1]);
  }
  return rates.back();
}

// ---------------------------------------------------------------------------

class BatchLookup final : public Workload {
 public:
  explicit BatchLookup(RunOptions options) : Workload(std::move(options)) {}
  RepResult run_rep(bool traced, Spans& spans) override;
  std::vector<std::string> notes() const override {
    return {"closed loop: one caller issues 3 batches of uniform point lookups through "
            "HarmoniaIndex::search (PSA + NTG on); a lookup's latency is its batch's "
            "virtual sort + kernel time"};
  }

 protected:
  unsigned log2_keys() const override { return options_.smoke ? 14 : 22; }

 private:
  static constexpr unsigned kBatches = 3;
  unsigned log2_batch() const { return options_.smoke ? 12 : 20; }
};

RepResult BatchLookup::run_rep(bool traced, Spans& spans) {
  const auto scope = spans.open("rep");
  Topology& topo = unused_topology(spans);
  HarmoniaIndex& index = topo.shard_index(0);

  RepResult out;
  Summary batch_seconds;
  SearchTally tally;
  std::vector<std::vector<Key>> batches;
  std::vector<std::vector<Value>> answers;
  for (unsigned i = 0; i < kBatches; ++i) {
    batches.push_back(queries::make_queries(topo.keys(), 1ULL << log2_batch(),
                                            queries::Distribution::kUniform,
                                            options_.seed + 7 + i));
    HarmoniaIndex::QueryResult r;
    {
      const auto run_scope = spans.open("run");
      WallTimer t;
      r = index.search(batches.back());
      const double wall = t.elapsed_seconds();
      out.timed_wall += wall;
      tally.add(batches.back(), r, index.tree().height(), wall);
    }
    batch_seconds.add(r.total_seconds());
    if (traced) {
      const auto probe_scope = spans.open("probe.sort");
      tally.time_host_sort(batches.back(), r.sorted_bits);
    }
    answers.push_back(std::move(r.values));
  }
  const double rss = peak_rss_mb();

  WallTimer verify;
  {
    const auto verify_scope = spans.open("verify");
    out.wrong += verify_in_child([&] {
      std::uint64_t wrong = 0;
      for (unsigned i = 0; i < kBatches; ++i)
        wrong += check_lookups(topo.keys(), batches[i], answers[i]);
      return wrong;
    });
  }
  const double verify_s = verify.elapsed_seconds();

  const std::uint64_t lookups = tally.queries();
  out.attempted = lookups;
  out.values.put("wall_qps", per(static_cast<double>(lookups), out.timed_wall));
  out.values.put("peak_rss_mb", rss);
  out.values.put("virtual_mqs", per(static_cast<double>(lookups), batch_seconds.sum()) / 1e6);
  out.values.put("p50_us", pct_us(batch_seconds, 50), lookups);
  out.values.put("p99_us", pct_us(batch_seconds, 99), lookups);
  if (!traced) return out;

  tally.put(out.values);
  WallTimer t;
  index.recommend_query_knobs();
  out.values.put("setup.ntg_profile_s", t.elapsed_seconds());
  out.values.put("verify_s", verify_s);
  return out;
}

// ---------------------------------------------------------------------------

struct ServeSpec {
  unsigned log2_keys = 22;
  unsigned shards = 1;
  /// The rate ladder (Mq/s, ascending); the last rung is the top rung.
  std::vector<double> rates_mqs;
  /// The rung whose latencies are reported.
  double nominal_mqs = 0.0;
  std::uint64_t requests = 150000;
  std::uint64_t smoke_requests = 3000;
  queries::Distribution dist = queries::Distribution::kUniform;
  double update_fraction = 0.0;
  double range_fraction = 0.0;
  double scan_fraction = 0.0;
  serve::EpochMode mode = serve::EpochMode::kQuiesce;
  /// Delta-mode overlay bound; 0 keeps EpochConfig's default.
  std::size_t overlay_capacity = 0;
  /// Snapshot cadence; 0 = no persistence.
  std::uint64_t snapshot_every = 0;
};

class ServingWorkload final : public Workload {
 public:
  ServingWorkload(RunOptions options, ServeSpec spec)
      : Workload(std::move(options)), spec_(std::move(spec)) {}
  RepResult run_rep(bool traced, Spans& spans) override;
  std::vector<std::string> notes() const override;

 protected:
  unsigned log2_keys() const override { return options_.smoke ? 14 : spec_.log2_keys; }
  unsigned shards() const override { return spec_.shards; }

 private:
  std::uint64_t requests() const {
    return options_.smoke ? spec_.smoke_requests : spec_.requests;
  }
  bool mutates() const { return spec_.update_fraction > 0.0; }
  serve::ServeOptions serve_options(bool traced, const std::filesystem::path& persist_dir);
  serve::OpenLoopSpec stream_spec(double rate_mqs) const;
  /// Per-layer readings of the nominal rung (report fields + probes).
  void read_layers(Topology& topo, const std::vector<serve::Request>& stream,
                   const serve::ServerReport& rep, const RungStats& st,
                   const serve::ServeOptions& opts, RepValues& out, Spans& spans);

  ServeSpec spec_;
  /// The served keys (identical for every rebuild: same seed).
  std::vector<Key> keys_;
  obs::TraceRecorder recorder_;
};

std::vector<std::string> ServingWorkload::notes() const {
  char rungs[128];
  std::snprintf(rungs, sizeof rungs,
                "latencies are read at the nominal rung (%g Mq/s), virtual_mqs at the top rung "
                "(%g Mq/s)",
                spec_.nominal_mqs, spec_.rates_mqs.back());
  std::vector<std::string> notes = {
      "open loop: independent users arrive as Poisson traffic on the virtual clock; latency "
      "runs from the scheduled arrival, so generator lateness is 0 by construction",
      "the admission queue holds a whole rung's stream: overload shows as latency, never as "
      "refused requests",
      rungs};
  if (spec_.snapshot_every > 0)
    notes.push_back(
        "persistence: a fresh directory per rung; every write ends with ofstream::flush, no "
        "fsync");
  return notes;
}

serve::ServeOptions ServingWorkload::serve_options(bool traced,
                                                   const std::filesystem::path& persist_dir) {
  serve::ServeOptions o;
  o.batch.queue_capacity = std::max<std::size_t>(o.batch.queue_capacity, requests());
  o.epoch.mode = spec_.mode;
  if (spec_.overlay_capacity > 0) o.epoch.overlay_capacity = spec_.overlay_capacity;
  // Enough epochs to cross patch/compaction boundaries at smoke size.
  if (options_.smoke) o.epoch.max_buffered = 512;
  if (!persist_dir.empty()) {
    o.persist.dir = persist_dir.string();
    o.persist.snapshot_every = spec_.snapshot_every;
  }
  if (traced) o.obs = obs::Observer{&registry_, &recorder_};
  return o;
}

serve::OpenLoopSpec ServingWorkload::stream_spec(double rate_mqs) const {
  serve::OpenLoopSpec s;
  s.arrivals_per_second = rate_mqs * 1e6;
  s.count = requests();
  s.update_fraction = spec_.update_fraction;
  s.range_fraction = spec_.range_fraction;
  s.scan_fraction = spec_.scan_fraction;
  s.dist = spec_.dist;
  s.seed = options_.seed + 7;
  return s;
}

RepResult ServingWorkload::run_rep(bool traced, Spans& spans) {
  const auto scope = spans.open("rep");
  RepResult out;
  const std::vector<double>& rates = spec_.rates_mqs;
  std::vector<double> point_p99s;
  std::vector<bool> refused;
  std::uint64_t dropped = 0, shed = 0;
  double verify_s = 0.0;

  for (std::size_t i = 0; i < rates.size(); ++i) {
    char label[32];
    std::snprintf(label, sizeof label, "rung %g Mq/s", rates[i]);
    const auto rung_scope = spans.open(label);
    // Every rung starts from its own set-up, so a rung replays the same
    // whatever ran before it (updates, probes, other rungs).
    Topology& topo = unused_topology(spans);
    if (keys_.empty()) keys_ = topo.keys();
    const std::vector<serve::Request> stream = serve::make_open_loop(keys_, stream_spec(rates[i]));
    const std::filesystem::path persist_dir =
        spec_.snapshot_every > 0 ? options_.scratch / ("rung-" + std::to_string(i))
                                 : std::filesystem::path{};
    serve::ServeOptions opts = serve_options(traced, persist_dir);
    std::unique_ptr<persist::DurabilityDomain> durability;
    if (opts.persist.enabled()) {
      durability = std::make_unique<persist::DurabilityDomain>(opts.persist, topo.shards());
      opts.durability = durability.get();
    }
    std::unique_ptr<serve::Backend> backend = topo.make_backend(opts);

    serve::ServerReport rep;
    {
      const auto run_scope = spans.open("run");
      WallTimer t;
      rep = backend->run(stream);
      out.timed_wall += t.elapsed_seconds();
    }
    recorder_.clear();  // the lifecycle stamps of one rung are not kept
    out.attempted += stream.size();
    out.refused += rep.dropped + rep.shed;
    dropped += rep.dropped;
    shed += rep.shed;

    const RungStats st(stream, rep);
    point_p99s.push_back(st.points.empty() ? 0.0 : st.points.percentile(99));
    refused.push_back(rep.dropped + rep.shed > 0);
    if (rates[i] == spec_.nominal_mqs) {
      out.values.put("p50_us", pct_us(st.all, 50), st.all.count());
      out.values.put("p99_us", pct_us(st.all, 99), st.all.count());
      if (traced) read_layers(topo, stream, rep, st, opts, out.values, spans);
    }
    if (i + 1 == rates.size()) {
      // Queries only, up to the last query completion: the report's
      // makespan would also count the final epoch drain.
      out.values.put("virtual_mqs",
                     per(static_cast<double>(st.completed_queries()), st.query_span()) / 1e6,
                     st.completed_queries());
    }

    backend.reset();
    durability.reset();
    if (!persist_dir.empty()) std::filesystem::remove_all(persist_dir);
    WallTimer verify;
    const auto verify_scope = spans.open("verify");
    out.wrong += verify_in_child(
        [&] { return check_stream(keys_, stream, rep, opts.batch.max_range_results); });
    verify_s += verify.elapsed_seconds();
  }

  out.values.put("wall_qps", per(static_cast<double>(out.attempted), out.timed_wall));
  out.values.put("peak_rss_mb", peak_rss_mb());
  if (traced) {
    out.values.put("serve.max_rate_mqs", max_rate(rates, point_p99s, refused));
    out.values.put("serve.dropped", static_cast<double>(dropped));
    out.values.put("serve.shed", static_cast<double>(shed));
    out.values.put("verify_s", verify_s);
  }
  return out;
}

void ServingWorkload::read_layers(Topology& topo, const std::vector<serve::Request>& stream,
                                  const serve::ServerReport& rep, const RungStats& st,
                                  const serve::ServeOptions& opts, RepValues& out,
                                  Spans& spans) {
  const auto scope = spans.open("probe");
  out.put("lat.point_p50_us", pct_us(st.points, 50), st.points.count());
  out.put("lat.point_p99_us", pct_us(st.points, 99), st.points.count());
  out.put("lat.range_p99_us", pct_us(st.ranges, 99), st.ranges.count());
  out.put("lat.update_p99_us", pct_us(st.updates, 99), st.updates.count());

  out.put("serve.queue_delay_p50_us", pct_us(rep.queue_delay, 50), rep.queue_delay.count());
  out.put("serve.queue_delay_p99_us", pct_us(rep.queue_delay, 99), rep.queue_delay.count());
  out.put("serve.batch_size_mean", rep.batch_size.empty() ? 0.0 : rep.batch_size.mean(),
          rep.batch_size.count());
  out.put("serve.batches", static_cast<double>(rep.batches));
  // busy_seconds sums over shards, so divide by shards x the query span
  // (not the makespan, which includes the final epoch drain).
  out.put("serve.device_busy_frac", per(rep.busy_seconds, topo.shards() * st.query_span()));

  out.put("epoch.count", static_cast<double>(rep.epochs));
  out.put("epoch.patch_count", static_cast<double>(rep.patch_epochs));
  out.put("epoch.compaction_count", static_cast<double>(rep.compaction_epochs));
  out.put("epoch.build_ms", rep.epoch_build_seconds * 1e3);
  out.put("epoch.upload_ms", rep.epoch_upload_seconds * 1e3);
  out.put("epoch.swap_wait_ms", rep.epoch_swap_wait_seconds * 1e3);
  out.put("epoch.stall_ms", rep.epoch_stall_seconds * 1e3);
  out.put("epoch.ops_applied", static_cast<double>(rep.updates_applied));
  out.put("epoch.ops_failed", static_cast<double>(rep.updates_failed));

  out.put("persist.snapshots_written", static_cast<double>(rep.snapshots_written));
  out.put("persist.log_batches", static_cast<double>(rep.log_batches));

  if (!rep.shard_queries.empty()) {
    double max_q = 0.0, sum_q = 0.0;
    for (std::uint64_t q : rep.shard_queries) {
      max_q = std::max(max_q, static_cast<double>(q));
      sum_q += static_cast<double>(q);
    }
    out.put("shard.load_max_over_mean",
            per(max_q, sum_q / static_cast<double>(rep.shard_queries.size())));
    out.put("shard.split_range_frac",
            per(static_cast<double>(rep.split_ranges + rep.split_scans),
                static_cast<double>(st.range_requests)));
  }

  probe_search(topo, stream, rep, out, spans);
  probe_range(topo, stream, rep, opts.batch.max_range_results, out, spans);
  if (mutates()) {
    // Epochs replay from the rung's starting state: a fresh topology.
    std::unique_ptr<Topology> fresh;
    {
      const auto setup_scope = spans.open("probe.setup");
      fresh = std::make_unique<Topology>(log2_keys(), shards(), options_.seed);
    }
    const std::filesystem::path dir =
        spec_.snapshot_every > 0 ? options_.scratch / "probe" : std::filesystem::path{};
    probe_updates(*fresh, stream, rep, opts.epoch, dir, out, spans);
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
  WallTimer t;
  topo.shard_index(0).recommend_query_knobs();
  out.put("setup.ntg_profile_s", t.elapsed_seconds());
}

}  // namespace

// ---------------------------------------------------------------------------

Topology& Workload::fresh_topology(Spans& spans) {
  const auto scope = spans.open("setup");
  topo_.reset();  // at most one topology alive: set-up and RSS stay honest
  topo_ = std::make_unique<Topology>(log2_keys(), shards(), options_.seed);
  topo_used_ = false;
  setups_.push_back(topo_->times());
  return *topo_;
}

Topology& Workload::unused_topology(Spans& spans) {
  if (!topo_ || topo_used_) fresh_topology(spans);
  topo_used_ = true;
  return *topo_;
}

void Workload::warm_up(Spans& spans) {
  for (int i = 0; i < kSetupRuns; ++i) fresh_topology(spans);
}

std::unique_ptr<Workload> make_workload(const RunOptions& options) {
  const std::string& w = options.workload;
  if (w == "batch_lookup") return std::make_unique<BatchLookup>(options);
  ServeSpec spec;
  if (w == "serve_read") {
    spec.log2_keys = 22;
    spec.rates_mqs = {10, 20, 30, 36, 40, 44, 48, 64};
    spec.nominal_mqs = 30;
  } else if (w == "serve_mixed_sharded") {
    spec.log2_keys = 20;
    spec.shards = 4;
    spec.rates_mqs = {20, 40, 80, 120, 160, 200, 240, 400};
    spec.nominal_mqs = 40;
    spec.dist = queries::Distribution::kZipfian;
    spec.update_fraction = 0.10;
    spec.range_fraction = 0.10;
    spec.scan_fraction = 0.05;
    spec.mode = serve::EpochMode::kOverlap;
  } else if (w == "serve_write_heavy") {
    spec.log2_keys = 21;
    spec.rates_mqs = {8};
    spec.nominal_mqs = 8;
    spec.requests = 400000;
    spec.smoke_requests = 8000;
    spec.update_fraction = 0.75;
    spec.mode = serve::EpochMode::kIncremental;
    spec.overlay_capacity = 4096;
    spec.snapshot_every = 4;
  } else {
    HARMONIA_CHECK_MSG(false, "unknown workload '" << w << "'; choose batch_lookup, serve_read, "
                                                    "serve_mixed_sharded or serve_write_heavy");
  }
  return std::make_unique<ServingWorkload>(options, std::move(spec));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace e2e
