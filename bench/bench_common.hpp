// Shared plumbing for the figure/table reproduction harnesses.
//
// Every harness prints the same rows/series its paper figure reports
// (EXPERIMENTS.md maps each binary to its figure). Default sizes are
// scaled down from the paper's 2^23-2^26 keys / 100M queries so a run
// finishes in seconds on the simulator; pass --full for paper sizes.
#pragma once

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "btree/btree.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "gpusim/device.hpp"
#include "harmonia/index.hpp"
#include "hbtree/index.hpp"
#include "obs/metrics.hpp"
#include "queries/workload.hpp"

namespace harmonia::bench {

using btree::entries_for;

/// "18,19,20" -> {18, 19, 20}.
inline std::vector<unsigned> parse_log_list(const std::string& csv) {
  std::vector<unsigned> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(static_cast<unsigned>(std::stoul(item)));
  }
  return out;
}

/// Registers the flags shared by most harnesses.
inline void add_common_flags(Cli& cli) {
  cli.flag("sizes", "comma list of log2 tree sizes", "18,19,20,21")
      .flag("queries", "log2 of the query batch size", "17")
      .flag("fanout", "tree fanout", "64")
      .flag("fill", "bulk-load fill factor", "0.69")
      .flag("dist", "query distribution", "uniform")
      .flag("seed", "workload seed", "1")
      .flag("full", "run the paper-scale sizes (2^23..2^26 keys)", "false")
      .flag("csv", "also write the table as CSV to this path", "(off)");
}

/// Prints the table, and mirrors it to --csv=<path> if given.
inline void emit(const Cli& cli, const Table& table) {
  table.print(std::cout);
  const std::string path = cli.get_string("csv", "");
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open csv output: " << path << "\n";
    return;
  }
  table.print_csv(out);
  std::cout << "(csv written to " << path << ")\n";
}

/// Registers --metrics-out for harnesses that thread an obs::Observer
/// through the serving stack. One registry spans the whole sweep, so the
/// dump holds totals aggregated across every cell (the per-cell numbers
/// stay in the table; see docs/observability.md).
inline void add_metrics_flag(Cli& cli) {
  cli.flag("metrics-out",
           "write a sweep-wide Prometheus-style metrics dump to this path", "(off)");
}

/// Writes the registry to --metrics-out=<path> if given.
inline void maybe_dump_metrics(const Cli& cli, const obs::MetricsRegistry& metrics) {
  const std::string path = cli.get_string("metrics-out", "");
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open metrics output: " << path << "\n";
    return;
  }
  out << metrics.prometheus_text();
  std::cout << "(metrics written to " << path << ")\n";
}

struct CommonConfig {
  std::vector<unsigned> size_logs;
  std::uint64_t num_queries = 1 << 17;
  unsigned fanout = 64;
  double fill = 0.69;
  queries::Distribution dist = queries::Distribution::kUniform;
  std::uint64_t seed = 1;
  bool full = false;
};

inline CommonConfig read_common(const Cli& cli) {
  CommonConfig cfg;
  cfg.full = cli.get_bool("full", false);
  cfg.size_logs = parse_log_list(cli.get_string("sizes", cfg.full ? "23,24,25,26"
                                                                  : "18,19,20,21"));
  if (cfg.full && !cli.has("sizes")) cfg.size_logs = {23, 24, 25, 26};
  cfg.num_queries = 1ULL << cli.get_uint("queries", cfg.full ? 20 : 17);
  cfg.fanout = static_cast<unsigned>(cli.get_uint("fanout", 64));
  cfg.fill = cli.get_double("fill", 0.69);
  cfg.dist = queries::distribution_from_string(cli.get_string("dist", "uniform"));
  cfg.seed = cli.get_uint("seed", 1);
  return cfg;
}

/// A TITAN V whose global segment is trimmed to what the benches need
/// (keeps host memory in check when several devices coexist).
inline gpusim::DeviceSpec bench_spec(std::uint64_t global_bytes = 8ULL << 30) {
  auto spec = gpusim::titan_v();
  spec.global_mem_bytes = global_bytes;
  return spec;
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n== " << title << " ==\n"
            << "reproduces: " << paper_ref << "\n\n";
}

}  // namespace harmonia::bench
