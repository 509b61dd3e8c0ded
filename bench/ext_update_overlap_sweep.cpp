// Extension E13: what the double-buffered epoch pipeline buys under an
// update-heavy stream (docs/serving.md#epoch-pipeline).
//
// The same Poisson request stream (a grid of update fractions) replays
// against all three epoch modes. Quiesce holds every device through each
// epoch's CPU build and PCIe upload, so queries arriving during an epoch
// eat the whole stall in their tail latency. Overlap builds and uploads
// image N+1 in the background while queries keep flowing against image
// N, then swaps at a batch boundary — the stall column collapses to zero
// and the tail tightens, at the price of a (tiny) swap wait. Delta
// (incremental) goes further: each epoch patches the committed image in
// place through the key-region gaps and the device overlay, so both the
// build (cheap patch ops instead of a full Algorithm-1 build) and the
// upload (dirty leaves instead of a full image) collapse; only epochs
// that exhaust their gaps/overlay fall back to a full compaction. The
// per-stage columns (build | upload | swap wait | stall) plus the delta
// split (patch/compaction epochs and their build/upload shares) come
// straight from the report's attribution fields, so the delta is
// auditable row by row. With --check the binary enforces the acceptance
// gates itself: overlap p99 must not exceed quiesce p99 once updates
// reach 10% of the stream, and at >=50% updates delta's per-epoch
// build+upload must undercut overlap's by at least 10x.
#include "bench_common.hpp"

#include "serve/workload.hpp"
#include "shard/backend_factory.hpp"

namespace hb = harmonia::bench;
using namespace harmonia;

namespace {

/// "0,0.05,0.2" -> {0.0, 0.05, 0.2}.
std::vector<double> parse_fraction_list(const std::string& csv) {
  std::vector<double> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::stod(item));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.flag("size", "log2 tree size", "18")
      .flag("requests", "requests per run", "20000")
      .flag("rate", "arrival rate (Mq/s)", "5")
      .flag("updates", "comma list of update fractions", "0,0.05,0.1,0.2")
      .flag("shards", "simulated devices (1 = single-device server)", "1")
      .flag("max-batch", "batch size trigger", "4096")
      .flag("queue-cap", "admission queue capacity", "16384")
      .flag("epoch-updates", "updates buffered per epoch", "512")
      .flag("overlay-cap", "delta-mode device overlay bound (per shard)", "1024")
      .flag("fanout", "tree fanout", "64")
      .flag("pcie", "link bandwidth in GB/s", "12.0")
      .flag("seed", "workload seed", "1")
      .flag("check", "fail unless overlap p99 <= quiesce p99 at >=10% updates "
                     "and delta per-epoch build+upload <= overlap/10 at >=50%",
            "false")
      .flag("csv", "also write the table as CSV to this path", "(off)");
  hb::add_metrics_flag(cli);
  if (!cli.parse(argc, argv)) return 1;

  const std::uint64_t requests = cli.get_uint("requests", 20000);
  const double rate = cli.get_double("rate", 5) * 1e6;
  const auto fractions = parse_fraction_list(cli.get_string("updates", "0,0.05,0.1,0.2"));
  const bool check = cli.get_bool("check", false);

  hb::print_header("Update-overlap sweep: update fraction x epoch mode",
                   "extension E13 (double-buffered epoch pipeline)");

  shard::TopologySpec topo;
  topo.log2_keys = cli.get_uint("size", 18);
  topo.fanout = static_cast<unsigned>(cli.get_uint("fanout", 64));
  topo.shards = static_cast<unsigned>(cli.get_uint("shards", 1));
  topo.seed = cli.get_uint("seed", 1);
  topo.device = hb::bench_spec();
  const bool observe = !cli.get_string("metrics-out", "").empty();
  obs::MetricsRegistry metrics;

  Table table({"updates", "mode", "epochs", "completed", "p50 (us)", "p99 (us)",
               "build (ms)", "upload (ms)", "swap wait (ms)", "stall (ms)",
               "patch ep", "compact ep", "patch build (ms)", "patch upload (ms)",
               "achieved (Mq/s)"});

  bool gate_ok = true;
  for (const double frac : fractions) {
    double quiesce_p99 = 0.0;
    double overlap_per_epoch = 0.0;
    for (const serve::EpochMode mode :
         {serve::EpochMode::kQuiesce, serve::EpochMode::kOverlap,
          serve::EpochMode::kIncremental}) {
      serve::ServeOptions cfg;
      cfg.batch.max_batch = cli.get_uint("max-batch", 4096);
      cfg.batch.queue_capacity = cli.get_uint("queue-cap", 16384);
      cfg.epoch.max_buffered = cli.get_uint("epoch-updates", 512);
      cfg.epoch.mode = mode;
      cfg.epoch.overlay_capacity = cli.get_uint("overlay-cap", 1024);
      cfg.link.gigabytes_per_second = cli.get_double("pcie", 12.0);
      // Only the overlap rows feed the registry: the quiesce and delta
      // rows rerun the same stream and would double-count epochs in the
      // sweep totals.
      if (observe && mode == serve::EpochMode::kOverlap)
        cfg.obs.metrics = &metrics;

      // Fresh stack per cell: every mode must start from the same tree.
      shard::ServingStack stack(topo, cfg);

      serve::OpenLoopSpec spec;
      spec.arrivals_per_second = rate;
      spec.count = requests;
      spec.update_fraction = frac;
      spec.seed = cli.get_uint("seed", 1) + 7;
      const auto stream = serve::make_open_loop(stack.keys(), spec);

      const auto rep = stack.backend().run(stream);
      const bool is_overlap = mode == serve::EpochMode::kOverlap;
      const bool is_delta = mode == serve::EpochMode::kIncremental;
      const double p99 = rep.latency.percentile(99);
      const double per_epoch =
          rep.epochs > 0 ? (rep.epoch_build_seconds + rep.epoch_upload_seconds) /
                               static_cast<double>(rep.epochs)
                         : 0.0;
      if (mode == serve::EpochMode::kQuiesce) quiesce_p99 = p99;
      if (is_overlap) overlap_per_epoch = per_epoch;
      if (check && is_overlap && frac >= 0.1 && p99 > quiesce_p99) {
        std::cerr << "CHECK FAILED: overlap p99 " << p99 * 1e6
                  << " us > quiesce p99 " << quiesce_p99 * 1e6
                  << " us at update fraction " << frac << "\n";
        gate_ok = false;
      }
      // The incremental crossover gate: once updates dominate, patching
      // in place must beat rebuilding full images by an order of
      // magnitude on the per-epoch build+upload cost.
      if (check && is_delta && frac >= 0.5 && rep.epochs > 0 &&
          per_epoch * 10.0 > overlap_per_epoch) {
        std::cerr << "CHECK FAILED: delta per-epoch build+upload "
                  << per_epoch * 1e3 << " ms not 10x under overlap's "
                  << overlap_per_epoch * 1e3 << " ms at update fraction "
                  << frac << "\n";
        gate_ok = false;
      }

      table.add(frac,
                is_overlap ? "overlap" : (is_delta ? "delta" : "quiesce"),
                rep.epochs, rep.completed, rep.latency.percentile(50) * 1e6,
                p99 * 1e6, rep.epoch_build_seconds * 1e3,
                rep.epoch_upload_seconds * 1e3,
                rep.epoch_swap_wait_seconds * 1e3, rep.epoch_stall_seconds * 1e3,
                rep.patch_epochs, rep.compaction_epochs,
                rep.epoch_patch_build_seconds * 1e3,
                rep.epoch_patch_upload_seconds * 1e3,
                rep.query_throughput() / 1e6);
    }
  }
  hb::emit(cli, table);
  hb::maybe_dump_metrics(cli, metrics);
  std::cout << "\nexpected: near-identical rows at 0% updates; as the update"
            << " fraction grows, quiesce accumulates serving stall and its"
            << " p99 inflates, overlap keeps stall at zero for a small swap"
            << " wait, and delta collapses build+upload to the patch columns"
            << " (compact ep counts its overlay-exhaustion fallbacks)\n";
  if (check && !gate_ok) return 1;
  return 0;
}
