// harmonia_e2e — one workload of the end-to-end benchmark per process.
//
//   harmonia_e2e --workload=serve_read --seed=1 --seconds=15
//   harmonia_e2e --workload=serve_read --seed=1 --trace=out/
//
// Untraced: sets up kSetupRuns times, then repeats the workload (at least
// --reps times, and again while another repetition fits in --seconds),
// prints each metric as median and quartiles over the repetitions, and
// exits nonzero on any wrong answer. Virtual and count metrics must read
// the same in every repetition — a difference fails the run too.
//
// Traced (--trace=<dir>): one untraced repetition, then one with the
// serving Observer attached and the host-wall probes run; writes
// layers_<workload>.json, trace_<workload>.json (Chrome trace of the
// benchmark's spans) and metrics_<workload>.prom into <dir>. The traced
// repetition's virtual metrics must equal the untraced one's.
//
// The last line of stdout is the result as one JSON object; run.py turns
// it into the benchmark contract's line.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/cli.hpp"
#include "common/expect.hpp"
#include "common/timer.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace e2e;
using harmonia::WallTimer;

namespace {

/// Removes the run's scratch directory on every exit path.
class ScratchDir {
 public:
  explicit ScratchDir(fs::path path) : path_(std::move(path)) { fs::create_directories(path_); }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

struct Outcome {
  std::vector<RepValues> samples;  // repetitions + set-up samples
  std::uint64_t attempted = 0;
  std::uint64_t refused = 0;
  std::uint64_t wrong = 0;
  std::vector<std::string> nondeterministic;
  std::size_t reps = 0;
};

void absorb(Outcome& o, const RepResult& r) {
  o.attempted += r.attempted;
  o.refused += r.refused;
  o.wrong += r.wrong;
}

/// Keeps only the end-to-end (or only the per-layer) readings.
RepValues filtered(const RepValues& v, bool per_layer) {
  RepValues out;
  for (const auto& [name, s] : v.values()) {
    if (metric_def(name).per_layer == per_layer) out.put(name, s.value, s.n);
  }
  return out;
}

std::string metrics_json(const std::vector<Aggregate>& aggs) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < aggs.size(); ++i) {
    const Aggregate& a = aggs[i];
    os << (i ? "," : "") << json_string(a.def->name) << ":{\"unit\":" << json_string(a.def->unit)
       << ",\"clock\":\"" << to_string(a.def->clock) << "\",\"better\":\""
       << (a.def->better == Better::kLower ? "lower" : "higher")
       << "\",\"per_layer\":" << (a.def->per_layer ? "true" : "false")
       << ",\"median\":" << json_number(a.q.median) << ",\"q1\":" << json_number(a.q.q1)
       << ",\"q3\":" << json_number(a.q.q3) << ",\"n\":" << a.n << ",\"values\":[";
    for (std::size_t j = 0; j < a.values.size(); ++j)
      os << (j ? "," : "") << json_number(a.values[j]);
    os << "]}";
  }
  os << "}";
  return os.str();
}

void print_table(const std::vector<Aggregate>& aggs) {
  std::printf("%-36s %14s %14s %14s  %-8s %-7s %s\n", "metric", "median", "q1", "q3", "unit",
              "clock", "n");
  for (const Aggregate& a : aggs) {
    std::printf("%-36s %14.6g %14.6g %14.6g  %-8s %-7s %llu\n", a.def->name, a.q.median, a.q.q1,
                a.q.q3, a.def->unit, to_string(a.def->clock),
                static_cast<unsigned long long>(a.n));
  }
}

void write_layers(const fs::path& dir, const std::string& workload,
                  const std::vector<Aggregate>& aggs, const Spans& spans,
                  const harmonia::obs::MetricsRegistry& registry) {
  fs::create_directories(dir);
  std::vector<Aggregate> layers;
  for (const Aggregate& a : aggs) {
    if (a.def->per_layer) layers.push_back(a);
  }
  std::ofstream out(dir / ("layers_" + workload + ".json"));
  out << "{\"workload\":" << json_string(workload) << ",\"metrics\":" << metrics_json(layers);
  for (const auto& [key, m] : {std::pair{"span_self_s", spans.self_seconds()},
                               std::pair{"span_total_s", spans.total_seconds()}}) {
    out << ",\"" << key << "\":{";
    bool first = true;
    for (const auto& [name, s] : m) {
      out << (first ? "" : ",") << json_string(name) << ":" << json_number(s);
      first = false;
    }
    out << "}";
  }
  out << "}\n";
  std::ofstream trace(dir / ("trace_" + workload + ".json"));
  spans.write_chrome_trace(trace);
  std::ofstream prom(dir / ("metrics_" + workload + ".prom"));
  prom << registry.prometheus_text();
  HARMONIA_CHECK_MSG(out.good() && trace.good() && prom.good(),
                     "cannot write trace output into " << dir.string());
}

int run(const harmonia::Cli& cli) {
  RunOptions options;
  options.workload = cli.get_string("workload", "");
  options.seed = cli.get_uint("seed", 1);
  options.smoke = cli.get_choice("scale", {"full", "smoke"}, "full") == "smoke";
  const double seconds = cli.get_double("seconds", 0.0);
  const std::uint64_t min_reps = std::max<std::uint64_t>(1, cli.get_uint("reps", 1));
  const fs::path trace_dir = cli.get_string("trace", "");
  const bool traced = !trace_dir.empty();
  const ScratchDir scratch(fs::path(cli.get_string("scratch", ".bench_build/tmp")) /
                           (options.workload + "-" + std::to_string(::getpid())));
  options.scratch = scratch.path();

  std::unique_ptr<Workload> w = make_workload(options);
  Spans spans(traced);
  Outcome o;
  {
    const auto root = spans.open("workload " + options.workload);
    w->warm_up(spans);
    WallTimer budget;
    const RepResult first = w->run_rep(false, spans);
    double rep_seconds = budget.elapsed_seconds();
    absorb(o, first);
    o.samples.push_back(filtered(first.values, false));
    o.reps = 1;
    if (traced) {
      RepResult rep = w->run_rep(true, spans);
      absorb(o, rep);
      o.nondeterministic = virtual_mismatches(first.values, rep.values);
      rep.values.put("trace.overhead_frac", rep.timed_wall / first.timed_wall - 1.0);
      o.samples.push_back(filtered(rep.values, true));
    } else {
      while (o.reps < min_reps || budget.elapsed_seconds() + rep_seconds <= seconds) {
        WallTimer t;
        const RepResult rep = w->run_rep(false, spans);
        rep_seconds = t.elapsed_seconds();
        absorb(o, rep);
        for (const std::string& m : virtual_mismatches(first.values, rep.values))
          o.nondeterministic.push_back(m);
        o.samples.push_back(rep.values);
        ++o.reps;
      }
    }
  }
  for (const SetupTimes& s : w->setups()) {
    RepValues v;
    v.put("setup_s", s.total());
    if (traced) {
      v.put("setup.keygen_s", s.keygen);
      v.put("setup.bulk_load_s", s.bulk_load);
      v.put("setup.upload_s", s.upload);
    }
    o.samples.push_back(v);
  }
  if (traced) {
    // A layer the workload does not exercise reads 0.
    RepValues zeros;
    for (const MetricDef& d : catalogue()) {
      bool seen = false;
      for (const RepValues& v : o.samples) seen = seen || v.values().count(d.name) > 0;
      if (d.per_layer && !seen) zeros.put(d.name, 0.0, 0);
    }
    o.samples.push_back(zeros);
  }

  const std::vector<Aggregate> aggs = aggregate(o.samples);
  if (traced) write_layers(trace_dir, options.workload, aggs, spans, w->registry());

  const bool correct = o.wrong == 0 && o.nondeterministic.empty();
  for (const std::string& m : o.nondeterministic)
    std::cerr << "NONDETERMINISTIC: " << m << " differs between repetitions of one seed\n";
  std::printf("== %s  seed=%llu  reps=%zu  setups=%zu%s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), o.reps, w->setups().size(),
              traced ? "  (traced)" : "");
  for (const std::string& note : w->notes()) std::printf("note: %s\n", note.c_str());
  print_table(aggs);
  std::printf("attempted=%llu refused=%llu wrong_answers=%llu\n",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.refused),
              static_cast<unsigned long long>(o.wrong));

  std::ostringstream js;
  js << "{\"workload\":" << json_string(options.workload) << ",\"seed\":" << options.seed
     << ",\"scale\":\"" << (options.smoke ? "smoke" : "full") << "\",\"traced\":"
     << (traced ? "true" : "false") << ",\"reps\":" << o.reps
     << ",\"setups\":" << w->setups().size() << ",\"correct\":" << (correct ? "true" : "false")
     << ",\"attempted\":" << o.attempted << ",\"failed\":" << o.refused + o.wrong
     << ",\"wrong_answers\":" << o.wrong << ",\"notes\":[";
  const auto notes = w->notes();
  for (std::size_t i = 0; i < notes.size(); ++i) js << (i ? "," : "") << json_string(notes[i]);
  js << "],\"metrics\":" << metrics_json(aggs) << "}";
  std::cout << js.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  harmonia::Cli cli;
  cli.flag("workload", "batch_lookup | serve_read | serve_mixed_sharded | serve_write_heavy",
           "(required)")
      .flag("seed", "input seed (keys, streams, batches)", "1")
      .flag("seconds", "repeat while another repetition fits in this many seconds", "0")
      .flag("reps", "minimum repetitions", "1")
      .flag("trace", "traced run: write per-layer metrics and traces into this directory",
            "(off)")
      .flag("scale", "full | smoke", "full")
      .flag("scratch", "parent directory for the run's persistence files", ".bench_build/tmp");
  if (!cli.parse(argc, argv)) return 2;
  try {
    return run(cli);
  } catch (const std::exception& e) {
    std::cerr << "harmonia_e2e: " << e.what() << "\n";
    return 2;
  }
}
