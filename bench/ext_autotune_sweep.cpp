// Extension E17: does the closed-loop autotuner (src/tune/,
// docs/serving.md#autotuner) actually track a shifting workload?
//
// One phase-shifting open-loop stream — a uniform point phase, then a
// zipfian phase, then an update-heavy phase — replays against (a) a grid
// of static (max_batch, max_wait) configurations and (b) one autotuned
// run that starts from the first grid cell and adapts online. Responses
// are attributed to phases by arrival time, so every run scores the same
// arrivals; the per-phase completed count (equivalently throughput — the
// denominators match) is the score.
//
// With --check the binary enforces the acceptance gate itself: in every
// phase the tuned run must complete at least --gate (default 0.9) of
// what the best static configuration for THAT phase completed, the tuner
// must actually move, and every report passes check_invariants(). The
// whole run is virtual-clock deterministic, so the gate is replayable.
#include "bench_common.hpp"

#include <algorithm>
#include <array>

#include "serve/workload.hpp"
#include "shard/backend_factory.hpp"
#include "tune/autotuner.hpp"

namespace hb = harmonia::bench;
using namespace harmonia;

namespace {

struct PhaseSpec {
  const char* name;
  queries::Distribution dist;
  double update_fraction;
};

constexpr std::array<PhaseSpec, 3> kPhases{{
    {"uniform", queries::Distribution::kUniform, 0.0},
    {"zipf", queries::Distribution::kZipfian, 0.0},
    {"update-heavy", queries::Distribution::kUniform, 0.30},
}};

/// "256,1024" -> {256, 1024}.
std::vector<std::uint64_t> parse_uint_list(const std::string& csv) {
  std::vector<std::uint64_t> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::stoull(item));
  }
  return out;
}

/// The three phases concatenated into one arrival-sorted stream. Each
/// phase contributes `per_phase` requests at `rate`; `edges` gets the
/// phase-end instants used to attribute responses back to phases.
std::vector<serve::Request> make_phased_stream(const std::vector<Key>& keys,
                                               double rate,
                                               std::uint64_t per_phase,
                                               std::uint64_t seed,
                                               std::vector<double>& edges) {
  std::vector<serve::Request> all;
  edges.clear();
  double offset = 0.0;
  std::uint64_t id_base = 0;
  for (std::size_t p = 0; p < kPhases.size(); ++p) {
    serve::OpenLoopSpec spec;
    spec.arrivals_per_second = rate;
    spec.count = per_phase;
    spec.update_fraction = kPhases[p].update_fraction;
    spec.dist = kPhases[p].dist;
    spec.seed = seed + 13 * p;
    auto seg = serve::make_open_loop(keys, spec);
    for (serve::Request& r : seg) {
      r.arrival += offset;
      r.id += id_base;
      all.push_back(r);
    }
    // Next phase starts at the nominal phase length or after this
    // phase's last arrival, whichever is later (keeps arrivals sorted).
    offset += static_cast<double>(per_phase) / rate;
    if (!all.empty()) offset = std::max(offset, all.back().arrival);
    edges.push_back(offset);
    id_base += per_phase;
  }
  return all;
}

std::size_t phase_of(double arrival, const std::vector<double>& edges) {
  for (std::size_t p = 0; p + 1 < edges.size(); ++p) {
    if (arrival < edges[p]) return p;
  }
  return edges.size() - 1;
}

struct PhaseScore {
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;
  std::vector<double> latencies;

  double percentile(double p) const {
    if (latencies.empty()) return 0.0;
    std::vector<double> v = latencies;
    std::sort(v.begin(), v.end());
    const std::size_t i = static_cast<std::size_t>(
        p / 100.0 * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(i, v.size() - 1)];
  }
};

/// Buckets a run's responses into per-phase scores by arrival time.
std::vector<PhaseScore> score_phases(const serve::ServerReport& rep,
                                     const std::vector<double>& edges) {
  std::vector<PhaseScore> scores(kPhases.size());
  for (const serve::Response& r : rep.responses) {
    PhaseScore& s = scores[phase_of(r.arrival, edges)];
    if (r.dropped) {
      ++s.dropped;
    } else {
      ++s.completed;
      s.latencies.push_back(r.latency());
    }
  }
  return scores;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.flag("size", "log2 tree size", "15")
      .flag("per-phase", "requests per phase", "60000")
      .flag("rate-mqs", "Poisson arrival rate (Mq/s); saturating rates are "
                        "the point — drops separate the configs", "30.0")
      .flag("grid-batches", "comma list of static max_batch configs",
            "256,1024,4096")
      .flag("grid-waits-us", "comma list of static max_wait configs (us)",
            "50,200")
      .flag("queue-cap", "admission queue capacity (per request kind)",
            "4096")
      .flag("epoch-updates", "updates buffered per epoch", "1024")
      .flag("fanout", "tree fanout", "64")
      .flag("seed", "workload seed", "1")
      .flag("gate", "fraction of the per-phase best-static completions the "
                    "tuned run must reach under --check", "0.9")
      .flag("check", "fail unless the tuned run tracks within --gate of the "
                     "best static config in every phase", "false")
      .flag("csv", "also write the table as CSV to this path", "(off)");
  hb::add_metrics_flag(cli);
  tune::AutotunerConfig::add_flags(cli);
  if (!cli.parse(argc, argv)) return 1;

  const double rate = cli.get_double("rate-mqs", 30.0) * 1e6;
  const std::uint64_t per_phase = cli.get_uint("per-phase", 60000);
  const auto batches =
      parse_uint_list(cli.get_string("grid-batches", "256,1024,4096"));
  const auto waits = parse_uint_list(cli.get_string("grid-waits-us", "50,200"));
  if (batches.empty() || waits.empty()) {
    std::cerr << "error: --grid-batches and --grid-waits-us each need at "
                 "least one value\n";
    return 1;
  }
  const bool check = cli.get_bool("check", false);
  const double gate = cli.get_double("gate", 0.9);

  hb::print_header("autotune sweep: static grid vs closed-loop tuner",
                   "extension E17 (online autotuner, src/tune/)");

  shard::TopologySpec topo;
  topo.log2_keys = cli.get_uint("size", 15);
  topo.fanout = static_cast<unsigned>(cli.get_uint("fanout", 64));
  topo.shards = 1;
  topo.seed = cli.get_uint("seed", 1);
  topo.device = hb::bench_spec();

  auto base_config = [&] {
    serve::ServeOptions cfg;
    cfg.batch.queue_capacity = cli.get_uint("queue-cap", 4096);
    cfg.epoch.max_buffered = cli.get_uint("epoch-updates", 1024);
    cfg.epoch.mode = serve::EpochMode::kOverlap;
    return cfg;
  };

  // The stream is a function of the tree keys, which every stack rebuilds
  // identically — generate it once from a throwaway stack.
  std::vector<double> edges;
  std::vector<serve::Request> stream;
  {
    shard::ServingStack probe(topo, base_config());
    stream = make_phased_stream(probe.keys(), rate, per_phase,
                                cli.get_uint("seed", 1) + 7, edges);
  }

  Table table({"config", "phase", "completed", "dropped", "p50 (us)",
               "p99 (us)", "Mq/s"});
  const double phase_secs = static_cast<double>(per_phase) / rate;

  auto add_rows = [&](const std::string& name,
                      const std::vector<PhaseScore>& scores) {
    for (std::size_t p = 0; p < kPhases.size(); ++p) {
      const PhaseScore& s = scores[p];
      table.add(name, kPhases[p].name, s.completed, s.dropped,
                s.percentile(50) * 1e6, s.percentile(99) * 1e6,
                static_cast<double>(s.completed) / phase_secs / 1e6);
    }
  };

  // --- The static grid: one full 3-phase run per (max_batch, max_wait).
  std::array<std::uint64_t, kPhases.size()> best{};
  for (const std::uint64_t b : batches) {
    for (const std::uint64_t w : waits) {
      serve::ServeOptions cfg = base_config();
      cfg.batch.max_batch = b;
      cfg.batch.max_wait = static_cast<double>(w) * 1e-6;
      shard::ServingStack stack(topo, cfg);
      const auto rep = stack.backend().run(stream);
      rep.check_invariants();
      const auto scores = score_phases(rep, edges);
      for (std::size_t p = 0; p < kPhases.size(); ++p)
        best[p] = std::max(best[p], scores[p].completed);
      std::ostringstream label;
      label << 'b' << b << "/w" << w << "us";
      add_rows(label.str(), scores);
    }
  }

  // --- The tuned run: starts from the first grid cell and adapts.
  obs::MetricsRegistry metrics;
  tune::AutotunerConfig tcfg = tune::AutotunerConfig::from_cli(cli);
  tune::Autotuner tuner(tcfg, metrics);
  serve::ServeOptions cfg = base_config();
  cfg.batch.max_batch = batches.front();
  cfg.batch.max_wait = static_cast<double>(waits.front()) * 1e-6;
  cfg.obs.metrics = &metrics;
  cfg.tuner = &tuner;
  shard::ServingStack stack(topo, cfg);
  const auto rep = stack.backend().run(stream);
  rep.check_invariants();
  const auto tuned = score_phases(rep, edges);
  add_rows("tuned", tuned);

  hb::emit(cli, table);
  hb::maybe_dump_metrics(cli, metrics);
  std::cout << "\nautotuner: " << tuner.moves() << " moves tried, "
            << tuner.rollbacks() << " rollbacks, " << tuner.vetoes()
            << " vetoes | final " << serve::to_string(stack.backend().tunables())
            << "\nexpected: the tuned run tracks the best static cell in each"
            << " phase (no single static config wins all three)\n";

  bool gate_ok = true;
  if (check) {
    if (tuner.moves() == 0) {
      std::cerr << "CHECK FAILED: the tuner never moved\n";
      gate_ok = false;
    }
    for (std::size_t p = 0; p < kPhases.size(); ++p) {
      const double need = gate * static_cast<double>(best[p]);
      if (static_cast<double>(tuned[p].completed) < need) {
        std::cerr << "CHECK FAILED: phase " << kPhases[p].name << " tuned "
                  << tuned[p].completed << " completions < " << gate
                  << " x best static " << best[p] << "\n";
        gate_ok = false;
      }
    }
  }
  return check && !gate_ok ? 1 : 0;
}
