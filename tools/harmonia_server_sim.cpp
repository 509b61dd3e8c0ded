// harmonia_server_sim — drive the online serving layer (src/serve/) with
// open-loop (Poisson) or closed-loop workloads on the virtual clock.
//
//   harmonia_server_sim open   --size=18 --rate-mqs=10 --requests=50000
//                              --updates=0.05 --ranges=0.02 --max-wait-us=100
//   harmonia_server_sim closed --size=18 --clients=256 --think-us=20 --requests=20000
//
// The topology is just a flag: --shards=1 serves from one device,
// --shards=N range-shards the key space over N devices — either way the
// run goes through the same shard::ShardedServer (shard/backend_factory.hpp),
// and --epoch-mode picks quiesce, the double-buffered overlap pipeline,
// or delta (in-place patches with a compaction fallback).
//
// Prints the aggregate report: admission/drop counts, batch-size and
// latency distributions (p50/p95/p99), update epochs with per-stage cost
// attribution, achieved throughput, and device-busy service rate.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/expect.hpp"
#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"
#include "persist/recovery.hpp"
#include "qos/priority.hpp"
#include "queries/workload.hpp"
#include "serve/options.hpp"
#include "serve/workload.hpp"
#include "shard/backend_factory.hpp"
#include "shard/restart_harness.hpp"
#include "tune/autotuner.hpp"

using namespace harmonia;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: harmonia_server_sim <open|closed> [flags]\n"
               "run a mode with --help for its flags\n");
  return 2;
}

void add_server_flags(Cli& cli) {
  cli.flag("size", "log2 tree size", "18")
      .flag("fanout", "tree fanout", "64")
      .flag("shards", "simulated devices (range-sharded serving)", "1")
      .flag("seed", "workload seed", "1")
      .flag("fault-csv", "write the FaultReport as CSV to this path", "")
      .flag("recovery-csv", "write per-shard RecoveryReports as CSV to this path", "")
      .flag("metrics", "print a Prometheus-style metrics dump to stdout", "false")
      .flag("metrics-out", "write the Prometheus-style metrics dump to this path", "")
      .flag("trace-out", "write the request-lifecycle trace to this path "
                         "(CSV, or JSON when the path ends in .json)", "")
      .flag("autotune", "enable the closed-loop online autotuner (src/tune/)",
            "false");
  serve::ServeOptions::add_flags(cli);
  tune::AutotunerConfig::add_flags(cli);
}

/// The tool-owned observability sinks (docs/observability.md). The serving
/// stack only borrows the registry/recorder for the run; each sink is
/// enabled only when its flag asks for it, so an unobserved run carries a
/// null Observer and stays bit-identical to pre-observability behaviour.
struct ObsSink {
  obs::MetricsRegistry metrics;
  obs::TraceRecorder trace;
  bool metrics_stdout = false;
  std::string metrics_path;
  std::string trace_path;

  explicit ObsSink(const Cli& cli)
      : metrics_stdout(cli.get_bool("metrics", false)),
        metrics_path(cli.get_string("metrics-out", "")),
        trace_path(cli.get_string("trace-out", "")) {}

  obs::Observer observer() {
    obs::Observer o;
    if (metrics_stdout || !metrics_path.empty()) o.metrics = &metrics;
    if (!trace_path.empty()) o.trace = &trace;
    return o;
  }

  void write_text(const std::string& path, const std::string& what,
                  const auto& emit) const {
    std::ofstream f(path);
    if (!f) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      std::exit(1);
    }
    emit(f);
    if (!f.good()) {
      std::fprintf(stderr, "error: short write of %s to %s\n", what.c_str(),
                   path.c_str());
      std::exit(1);
    }
  }

  void dump() const {
    if (metrics_stdout) {
      std::printf("\n%s", metrics.prometheus_text().c_str());
    }
    if (!metrics_path.empty()) {
      write_text(metrics_path, "metrics",
                 [&](std::ostream& os) { os << metrics.prometheus_text(); });
    }
    if (!trace_path.empty()) {
      const bool json = trace_path.size() >= 5 &&
                        trace_path.compare(trace_path.size() - 5, 5, ".json") == 0;
      write_text(trace_path, "trace", [&](std::ostream& os) {
        json ? trace.write_json(os) : trace.write_csv(os);
      });
    }
  }
};

/// Wires the closed-loop controller when --autotune asks for it: the
/// tuner reads the run's metrics registry (forced on — the controller is
/// a registry consumer), and the backend applies its decisions at safe
/// points.
std::optional<tune::Autotuner> maybe_autotune(const Cli& cli, ObsSink& sink,
                                              serve::ServeOptions& cfg) {
  std::optional<tune::Autotuner> tuner;
  if (cli.get_bool("autotune", false)) {
    cfg.obs.metrics = &sink.metrics;
    tuner.emplace(tune::AutotunerConfig::from_cli(cli), sink.metrics);
    cfg.tuner = &*tuner;
  }
  return tuner;
}

void print_tune_summary(const std::optional<tune::Autotuner>& tuner,
                        const shard::ShardedServer* backend) {
  if (!tuner.has_value()) return;
  std::printf("autotuner       : %llu moves tried, %llu rollbacks, "
              "%llu vetoes\n",
              static_cast<unsigned long long>(tuner->moves()),
              static_cast<unsigned long long>(tuner->rollbacks()),
              static_cast<unsigned long long>(tuner->vetoes()));
  if (backend != nullptr) {
    std::printf("final tunables  : %s\n",
                serve::to_string(backend->tunables()).c_str());
  }
}

shard::TopologySpec topology(const Cli& cli) {
  const std::uint64_t n = cli.get_uint("shards", 1);
  if (n < 1 || n > shard::ShardPlan::kMaxShards) {
    std::fprintf(stderr, "error: --shards must lie in [1, %u], got %llu\n",
                 shard::ShardPlan::kMaxShards, static_cast<unsigned long long>(n));
    std::exit(2);
  }
  shard::TopologySpec topo;
  topo.log2_keys = cli.get_uint("size", 18);
  topo.fanout = static_cast<unsigned>(cli.get_uint("fanout", 64));
  topo.shards = static_cast<unsigned>(n);
  topo.seed = cli.get_uint("seed", 1);
  return topo;
}

void print_report(const serve::ServerReport& rep) {
  std::printf("arrivals        : %llu (admitted %llu, dropped %llu)\n",
              static_cast<unsigned long long>(rep.arrivals),
              static_cast<unsigned long long>(rep.admitted),
              static_cast<unsigned long long>(rep.dropped));
  std::printf("queries served  : %llu in %llu batches (mean batch %.1f, max %.0f)\n",
              static_cast<unsigned long long>(rep.completed),
              static_cast<unsigned long long>(rep.batches),
              rep.batch_size.empty() ? 0.0 : rep.batch_size.mean(),
              rep.batch_size.empty() ? 0.0 : rep.batch_size.max());
  std::printf("update epochs   : %llu (%llu ops applied, %llu failed)\n",
              static_cast<unsigned long long>(rep.epochs),
              static_cast<unsigned long long>(rep.updates_applied),
              static_cast<unsigned long long>(rep.updates_failed));
  if (rep.epochs > 0) {
    std::printf("epoch pipeline  : build %.3f ms | upload %.3f ms | "
                "swap wait %.3f ms | serving stall %.3f ms\n",
                rep.epoch_build_seconds * 1e3, rep.epoch_upload_seconds * 1e3,
                rep.epoch_swap_wait_seconds * 1e3, rep.epoch_stall_seconds * 1e3);
    // Incremental mode splits epochs into in-place patches and full-image
    // compactions; elsewhere every epoch books as a compaction.
    if (rep.patch_epochs > 0) {
      std::printf("  patch         : %llu epochs | build %.3f ms | upload %.3f ms\n",
                  static_cast<unsigned long long>(rep.patch_epochs),
                  rep.epoch_patch_build_seconds * 1e3,
                  rep.epoch_patch_upload_seconds * 1e3);
      std::printf("  compaction    : %llu epochs | build %.3f ms | upload %.3f ms\n",
                  static_cast<unsigned long long>(rep.compaction_epochs),
                  rep.epoch_compaction_build_seconds * 1e3,
                  rep.epoch_compaction_upload_seconds * 1e3);
    }
  }
  if (!rep.latency.empty()) {
    std::printf("latency         : p50 %.1f us | p95 %.1f us | p99 %.1f us | max %.1f us\n",
                rep.latency.percentile(50) * 1e6, rep.latency.percentile(95) * 1e6,
                rep.latency.percentile(99) * 1e6, rep.latency.max() * 1e6);
    std::printf("queueing delay  : p50 %.1f us | p99 %.1f us\n",
                rep.queue_delay.percentile(50) * 1e6,
                rep.queue_delay.percentile(99) * 1e6);
  }
  if (!rep.queue_depth.empty()) {
    std::printf("queue depth     : mean %.1f | max %.0f\n", rep.queue_depth.mean(),
                rep.queue_depth.max());
  }
  std::printf("makespan        : %.3f ms (virtual)\n", rep.makespan * 1e3);
  std::printf("throughput      : %s achieved | %s while busy\n",
              throughput_human(rep.query_throughput()).c_str(),
              throughput_human(rep.service_rate()).c_str());
  // Multi-tenant QoS: the per-class ledger, printed once any class beyond
  // the default sees traffic or the admission edge throttles a tenant.
  if (rep.class_arrivals[1] + rep.class_arrivals[2] > 0 || rep.throttled > 0) {
    std::printf("throttled       : %llu dropped at the per-tenant admission edge\n",
                static_cast<unsigned long long>(rep.throttled));
    for (std::size_t c = 0; c < qos::kNumClasses; ++c) {
      const auto& lat = rep.class_latency[c];
      std::printf("class %-6s    : %llu arrivals | %llu done | %llu shed | "
                  "%llu dropped (%llu throttled) | p50 %.1f us | p99 %.1f us\n",
                  qos::to_string(qos::priority_at(c)),
                  static_cast<unsigned long long>(rep.class_arrivals[c]),
                  static_cast<unsigned long long>(rep.class_completed[c]),
                  static_cast<unsigned long long>(rep.class_shed[c]),
                  static_cast<unsigned long long>(rep.class_dropped[c]),
                  static_cast<unsigned long long>(rep.class_throttled[c]),
                  lat.empty() ? 0.0 : lat.percentile(50) * 1e6,
                  lat.empty() ? 0.0 : lat.percentile(99) * 1e6);
    }
  }
  // Sharded topology: the per-shard section of the same report. With
  // replica groups (K > 1) each shard line also breaks its batches down
  // by replica slot.
  const std::size_t replicas = rep.shard_batches.empty()
                                   ? 0
                                   : rep.replica_batches.size() / rep.shard_batches.size();
  for (std::size_t s = 0; s < rep.shard_batches.size(); ++s) {
    std::printf("shard %-2llu        : %llu batches, %llu queries",
                static_cast<unsigned long long>(s),
                static_cast<unsigned long long>(rep.shard_batches[s]),
                static_cast<unsigned long long>(rep.shard_queries[s]));
    if (replicas > 1) {
      std::printf(" [");
      for (std::size_t r = 0; r < replicas; ++r) {
        std::printf("%s%llu", r == 0 ? "" : " ",
                    static_cast<unsigned long long>(rep.replica_batches[s * replicas + r]));
      }
      std::printf("]");
    }
    std::printf("\n");
  }
  if (!rep.shard_batches.empty()) {
    std::printf("range fan-outs  : %llu ranges, %llu scans split across shards\n",
                static_cast<unsigned long long>(rep.split_ranges),
                static_cast<unsigned long long>(rep.split_scans));
    std::printf("barrier wait    : %.3f ms device idle at epoch barriers\n",
                rep.barrier_wait_seconds * 1e3);
    if (rep.migrations > 0) {
      std::printf("resharding      : %llu migrations, %llu keys moved, plan v%u "
                  "(build %.3f ms, upload %.3f ms)\n",
                  static_cast<unsigned long long>(rep.migrations),
                  static_cast<unsigned long long>(rep.migrated_keys),
                  rep.plan_version, rep.migration_build_seconds * 1e3,
                  rep.migration_upload_seconds * 1e3);
    }
  }
  if (rep.faults != fault::FaultReport{}) {
    const fault::FaultReport& f = rep.faults;
    std::printf("faults injected : %llu slowdown windows, %llu dispatch failures, "
                "%llu corruptions, %llu shards lost\n",
                static_cast<unsigned long long>(f.slowdown_windows),
                static_cast<unsigned long long>(f.dispatch_failures),
                static_cast<unsigned long long>(f.corruptions),
                static_cast<unsigned long long>(f.shards_lost));
    std::printf("detection       : %llu audits, %llu checksum mismatches\n",
                static_cast<unsigned long long>(f.audits),
                static_cast<unsigned long long>(f.checksum_mismatches));
    std::printf("mitigation      : %llu retries, %llu reimages, "
                "%llu/%llu/%llu degraded pt/rg/shed\n",
                static_cast<unsigned long long>(f.retries),
                static_cast<unsigned long long>(f.reimages),
                static_cast<unsigned long long>(f.degraded_points),
                static_cast<unsigned long long>(f.degraded_ranges),
                static_cast<unsigned long long>(f.degraded_shed));
    std::printf("queries shed    : %llu (fenced %.3f ms, backoff %.3f ms)\n",
                static_cast<unsigned long long>(rep.shed), f.fenced_seconds * 1e3,
                f.backoff_seconds * 1e3);
    if (f.replicas_lost + f.replicas_rejoined > 0) {
      std::printf("replica groups  : %llu lost (absorbed), %llu rejoined | "
                  "catch-up %llu ops, %.3f ms\n",
                  static_cast<unsigned long long>(f.replicas_lost),
                  static_cast<unsigned long long>(f.replicas_rejoined),
                  static_cast<unsigned long long>(f.catchup_ops),
                  f.catchup_seconds * 1e3);
    }
  }
}

void print_recoveries(const std::vector<persist::RecoveryReport>& recs) {
  for (const auto& r : recs) {
    std::printf("recovery shard %-2u: %s epoch %llu%s | replayed %llu overlay "
                "+ %llu log ops (%llu batches)%s | %llu + %llu bytes | "
                "modeled %.3f ms\n",
                r.shard, r.rebuilt ? "rebuilt to" : "snapshot at",
                static_cast<unsigned long long>(r.snapshot_epoch),
                r.snapshots_discarded > 0 ? " (discarded newer)" : "",
                static_cast<unsigned long long>(r.overlay_replayed),
                static_cast<unsigned long long>(r.ops_replayed),
                static_cast<unsigned long long>(r.batches_replayed),
                r.log_torn_tail ? " (torn tail truncated)" : "",
                static_cast<unsigned long long>(r.snapshot_bytes),
                static_cast<unsigned long long>(r.log_bytes),
                r.modeled_seconds * 1e3);
  }
}

void maybe_write_recovery_csv(const Cli& cli,
                              const std::vector<persist::RecoveryReport>& recs) {
  const std::string path = cli.get_string("recovery-csv", "");
  if (path.empty()) return;
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  f << persist::RecoveryReport::csv_header() << "\n";
  for (const auto& r : recs) f << r.csv_row() << "\n";
  if (!f.good()) {
    std::fprintf(stderr, "error: short write of recovery CSV to %s\n",
                 path.c_str());
    std::exit(1);
  }
}

void maybe_write_fault_csv(const Cli& cli, const serve::ServerReport& rep) {
  const std::string path = cli.get_string("fault-csv", "");
  if (path.empty()) return;
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "%s\n%s\n", fault::FaultReport::csv_header(),
               rep.faults.csv_row().c_str());
  std::fclose(f);
}

int cmd_open(int argc, const char* const* argv) {
  Cli cli;
  add_server_flags(cli);
  cli.flag("rate-mqs", "Poisson arrival rate (Mq/s)", "10.0")
      .flag("requests", "total requests", "50000")
      .flag("updates", "update fraction", "0.0")
      .flag("ranges", "range fraction", "0.0")
      .flag("range-span", "keys per range", "32")
      .flag("scan-frac", "online-scan fraction ([lo, n) scans)", "0.0")
      .flag("scan-n", "results each scan asks for", "16")
      .flag("tenants", "tenant population (>1 draws a tenant per request; "
                       "class = tenant % 3)", "0")
      .flag("dist", "query distribution", "uniform");
  if (!cli.parse(argc, argv)) return 2;
  const shard::TopologySpec topo = topology(cli);

  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = cli.get_double("rate-mqs", 10.0) * 1e6;
  spec.count = cli.get_uint("requests", 50000);
  spec.update_fraction = cli.get_double("updates", 0.0);
  spec.range_fraction = cli.get_double("ranges", 0.0);
  spec.scan_fraction = cli.get_double("scan-frac", 0.0);
  if (spec.update_fraction < 0 || spec.range_fraction < 0 ||
      spec.scan_fraction < 0 ||
      spec.update_fraction + spec.range_fraction + spec.scan_fraction > 1.0) {
    std::fprintf(stderr,
                 "error: --updates + --ranges + --scan-frac must lie in [0, 1]\n");
    return 2;
  }
  spec.range_span = cli.get_uint("range-span", 32);
  spec.scan_n = static_cast<std::uint32_t>(cli.get_uint("scan-n", 16));
  spec.tenants = static_cast<std::uint32_t>(cli.get_uint("tenants", 0));
  spec.dist = queries::distribution_from_string(cli.get_string("dist", "uniform"));
  spec.seed = cli.get_uint("seed", 1) + 7;

  std::printf("open loop: %llu requests at %.1f Mq/s (%.1f%% updates, %.1f%% ranges, "
              "%.1f%% scans, %u tenant%s, %u device%s, %s epochs)\n\n",
              static_cast<unsigned long long>(spec.count),
              spec.arrivals_per_second / 1e6, spec.update_fraction * 100,
              spec.range_fraction * 100, spec.scan_fraction * 100,
              spec.tenants, spec.tenants == 1 ? "" : "s", topo.shards,
              topo.shards > 1 ? "s" : "",
              cli.get_string("epoch-mode", "quiesce").c_str());
  ObsSink sink(cli);
  serve::ServeOptions cfg = serve::ServeOptions::from_cli(cli);
  cfg.obs = sink.observer();
  std::optional<tune::Autotuner> tuner = maybe_autotune(cli, sink, cfg);

  // A plan with restart events runs through the crash-restart harness:
  // a backend cannot restart itself (ServeOptions::validate rejects the
  // events), so the harness serves each generation, seals the crash, and
  // cold-starts the next from disk.
  const bool has_restart = std::any_of(
      cfg.faults.events.begin(), cfg.faults.events.end(),
      [](const fault::FaultEvent& e) {
        return e.kind == fault::FaultKind::kProcessRestart;
      });
  if (has_restart) {
    const auto keys = queries::make_tree_keys(1ULL << topo.log2_keys, topo.seed);
    const auto stream = serve::make_open_loop(keys, spec);
    const shard::RestartReport rr = shard::run_with_restarts(topo, cfg, stream);
    std::vector<persist::RecoveryReport> all;
    for (std::size_t i = 0; i < rr.cycles.size(); ++i) {
      const shard::RestartCycle& c = rr.cycles[i];
      std::printf("restart %-2llu      : crash %.3f ms | down %.3f ms | "
                  "recovery %.3f ms | TTFR %.3f ms\n",
                  static_cast<unsigned long long>(i), c.crash_time * 1e3,
                  c.down_seconds * 1e3, c.recovery_seconds * 1e3,
                  c.ttfr_seconds() * 1e3);
      print_recoveries(c.recoveries);
      all.insert(all.end(), c.recoveries.begin(), c.recoveries.end());
    }
    for (std::size_t g = 0; g < rr.segments.size(); ++g) {
      std::printf("\n--- generation %llu ---\n",
                  static_cast<unsigned long long>(g));
      print_report(rr.segments[g]);
    }
    print_tune_summary(tuner, nullptr);
    maybe_write_recovery_csv(cli, all);
    sink.dump();
    return 0;
  }

  shard::ServingStack stack(topo, cfg);
  if (!stack.recoveries().empty()) {
    print_recoveries(stack.recoveries());
    std::printf("\n");
  }
  maybe_write_recovery_csv(cli, stack.recoveries());
  const auto stream = serve::make_open_loop(stack.keys(), spec);
  const auto rep = stack.backend().run(stream);
  print_report(rep);
  print_tune_summary(tuner, &stack.backend());
  maybe_write_fault_csv(cli, rep);
  sink.dump();
  return 0;
}

int cmd_closed(int argc, const char* const* argv) {
  Cli cli;
  add_server_flags(cli);
  cli.flag("clients", "concurrent clients", "256")
      .flag("think-us", "per-client think time (us)", "20")
      .flag("requests", "total requests", "20000")
      .flag("dist", "query distribution", "uniform");
  if (!cli.parse(argc, argv)) return 2;
  const shard::TopologySpec topo = topology(cli);

  serve::ClosedLoopSpec spec;
  spec.clients = static_cast<unsigned>(cli.get_uint("clients", 256));
  spec.think_seconds = static_cast<double>(cli.get_uint("think-us", 20)) * 1e-6;
  spec.total_requests = cli.get_uint("requests", 20000);
  spec.dist = queries::distribution_from_string(cli.get_string("dist", "uniform"));
  spec.seed = cli.get_uint("seed", 1) + 7;

  std::printf("closed loop: %u clients, think %.0f us, %llu requests, %u device%s\n\n",
              spec.clients, spec.think_seconds * 1e6,
              static_cast<unsigned long long>(spec.total_requests), topo.shards,
              topo.shards > 1 ? "s" : "");
  ObsSink sink(cli);
  serve::ServeOptions cfg = serve::ServeOptions::from_cli(cli);
  cfg.obs = sink.observer();
  std::optional<tune::Autotuner> tuner = maybe_autotune(cli, sink, cfg);
  shard::ServingStack stack(topo, cfg);
  if (!stack.recoveries().empty()) {
    print_recoveries(stack.recoveries());
    std::printf("\n");
  }
  maybe_write_recovery_csv(cli, stack.recoveries());
  serve::ClosedLoopSource source(stack.keys(), spec);
  const auto rep = stack.backend().run(source);
  print_report(rep);
  print_tune_summary(tuner, &stack.backend());
  maybe_write_fault_csv(cli, rep);
  sink.dump();
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  if (mode == "open") return cmd_open(sub_argc, sub_argv);
  if (mode == "closed") return cmd_closed(sub_argc, sub_argv);
  return usage();
} catch (const ContractViolation& e) {
  // e.g. an option combination ServeOptions::validate rejects (queue-cap
  // below max-batch, lose on a single-device topology, bad --epoch-mode)
  // or a malformed --faults plan.
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
