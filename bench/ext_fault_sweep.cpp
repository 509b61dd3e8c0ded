// Extension E12: serving under injected faults — what mitigation buys.
//
// Seeded random fault schedules (FaultPlan::random) at increasing event
// rates replay against the sharded serving stack twice per rate: once
// with the full mitigation suite (bounded retry, CPU-oracle degraded
// serving) and once with every mitigation disabled (one dispatch
// attempt, zero degraded backlog). Both runs
// see the *same* fault schedule, so the delta in shed/completed/latency
// is exactly the value of mitigation. Answers are never wrong in either
// mode — the stack sheds visibly instead of serving corrupted data —
// so the interesting columns are availability and tail latency.
#include "bench_common.hpp"

#include "fault/fault_plan.hpp"
#include "serve/workload.hpp"
#include "shard/backend_factory.hpp"

namespace hb = harmonia::bench;
using namespace harmonia;

namespace {

/// Drops shard-lost events that would re-lose a shard while it is still
/// fenced from an earlier loss (the serving contract forbids that; a
/// random schedule can draw it).
fault::FaultPlan drop_overlapping_losses(fault::FaultPlan plan,
                                         unsigned num_shards) {
  std::vector<double> fenced_until(num_shards, -1.0);
  fault::FaultPlan out;
  for (const fault::FaultEvent& e : plan.events) {
    if (e.kind == fault::FaultKind::kShardLost) {
      if (e.at <= fenced_until[e.shard]) continue;
      fenced_until[e.shard] = e.at + e.duration;
    }
    out.events.push_back(e);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.flag("size", "log2 tree size", "18")
      .flag("requests", "requests per run", "20000")
      .flag("rate", "arrival rate (Mq/s)", "5")
      .flag("fault-rates", "comma list of fault events per virtual second", "0,500,2000,8000")
      .flag("shards", "number of shards", "4")
      .flag("updates", "update fraction of the stream", "0.1")
      .flag("epoch-mode", "epoch pipeline: quiesce | overlap", "quiesce")
      .flag("fanout", "tree fanout", "64")
      .flag("pcie", "link bandwidth in GB/s", "12.0")
      .flag("seed", "workload + fault-schedule seed", "1")
      .flag("csv", "also write the table as CSV to this path", "(off)");
  hb::add_metrics_flag(cli);
  if (!cli.parse(argc, argv)) return 1;

  const unsigned lg = static_cast<unsigned>(cli.get_uint("size", 18));
  const std::uint64_t requests = cli.get_uint("requests", 20000);
  const double rate = cli.get_double("rate", 5) * 1e6;
  const unsigned shards = static_cast<unsigned>(cli.get_uint("shards", 4));
  const auto fault_rates = hb::parse_log_list(cli.get_string("fault-rates", "0,500,2000,8000"));
  const std::uint64_t seed = cli.get_uint("seed", 1);
  const bool overlap = cli.get_string("epoch-mode", "quiesce") == "overlap";

  hb::print_header("Fault sweep: fault rate x mitigation on/off",
                   "extension E12 (robustness of the serving stack)");

  const bool observe = !cli.get_string("metrics-out", "").empty();
  // Only the mitigated runs feed the registry: the off-rows rerun the same
  // schedule and would double-count every fault event in the sweep totals.
  obs::MetricsRegistry metrics;

  shard::TopologySpec topo;
  topo.log2_keys = lg;
  topo.fanout = static_cast<unsigned>(cli.get_uint("fanout", 64));
  topo.shards = shards;
  topo.seed = seed;
  topo.device = hb::bench_spec();

  Table table({"faults/s", "mitigation", "injected", "retries", "degraded",
               "shed", "dropped", "completed", "p99 (us)", "achieved (Mq/s)"});

  for (unsigned fault_rate : fault_rates) {
    // One schedule per rate, shared by both mitigation modes.
    fault::FaultPlan::RandomSpec rspec;
    rspec.horizon = static_cast<double>(requests) / rate;
    rspec.events_per_second = fault_rate;
    rspec.num_shards = shards;
    const auto plan = drop_overlapping_losses(
        fault_rate == 0 ? fault::FaultPlan{}
                        : fault::FaultPlan::random(rspec, seed + 13),
        shards);

    for (const bool mitigate : {true, false}) {
      serve::ServeOptions cfg;
      cfg.link.gigabytes_per_second = cli.get_double("pcie", 12.0);
      cfg.epoch.mode =
          overlap ? serve::EpochMode::kOverlap : serve::EpochMode::kQuiesce;
      cfg.faults = plan;
      if (!mitigate) {
        cfg.mitigation.retry.max_attempts = 1;   // first failure sheds
        cfg.mitigation.degraded.max_backlog = 0; // fenced range sheds
      }
      if (observe && mitigate) cfg.obs.metrics = &metrics;

      shard::ServingStack stack(topo, cfg);

      serve::OpenLoopSpec spec;
      spec.arrivals_per_second = rate;
      spec.count = requests;
      spec.update_fraction = cli.get_double("updates", 0.1);
      spec.seed = seed + 7;
      const auto stream = serve::make_open_loop(stack.keys(), spec);

      const auto rep = stack.backend().run(stream);
      const auto& fr = rep.faults;

      table.add(fault_rate, mitigate ? "on" : "off",
                fr.slowdown_windows + fr.dispatch_failures + fr.corruptions +
                    fr.shards_lost,
                fr.retries, fr.degraded_points + fr.degraded_ranges, rep.shed, rep.dropped,
                rep.completed, rep.latency.percentile(99) * 1e6,
                rep.query_throughput() / 1e6);
    }
  }
  hb::emit(cli, table);
  hb::maybe_dump_metrics(cli, metrics);
  std::cout << "\nexpected: at every fault rate, mitigation on completes more"
            << " requests and sheds fewer than mitigation off under the same"
            << " fault schedule; at rate 0 the two rows are identical\n";
  return 0;
}
