// Extension E15: crash-recovery cost — snapshot+log cold start vs the
// no-durability alternative (bulk rebuild from source data).
//
// Per tree size, a serving history runs through the real durability
// write path (write-ahead log + cadence snapshots on the virtual
// clock), a crash is sealed mid-history with a torn final write, and
// RecoveryManager cold-starts a fresh index from the crashed
// directory. The recovered state re-validates structurally; the table
// compares the recovery's modeled cold-start seconds (disk reads +
// replay CPU + image upload) against modeled_rebuild_seconds (bulk
// rebuild of every key + full image upload).
//
// The durability pitch is the ratio: reading back ~16 bytes/key at
// disk bandwidth and replaying a short log tail must beat re-running
// the O(N) bulk build. --check=true enforces the E15 acceptance gate:
// at the largest size the cold start is >= 5x faster than the rebuild
// and actually started from a snapshot (a gate that silently passed
// via the rebuild fallback would compare the rebuild to itself).
#include "bench_common.hpp"

#include <filesystem>
#include <map>
#include <memory>

#include "common/rng.hpp"
#include "persist/durability.hpp"
#include "persist/recovery.hpp"
#include "queries/batch.hpp"
#include "serve/epoch_updater.hpp"

namespace hb = harmonia::bench;
using namespace harmonia;

namespace {

using queries::OpKind;
using queries::UpdateOp;

/// One epoch's update batch: mostly value updates on live keys, with
/// enough inserts/deletes that replay exercises every op kind.
std::vector<UpdateOp> make_batch(Xoshiro256& rng, const std::vector<Key>& keys,
                                 std::size_t ops) {
  std::vector<UpdateOp> batch;
  batch.reserve(ops);
  const Key span = keys.back() + keys.back() / 8;
  for (std::size_t i = 0; i < ops; ++i) {
    const double r = rng.next_double();
    if (r < 0.6) {
      const Key k = keys[rng.next_below(keys.size())];
      batch.push_back({OpKind::kUpdate, k, 1 + (rng.next() >> 1)});
    } else if (r < 0.85) {
      batch.push_back({OpKind::kInsert, 1 + rng.next_below(span), 1 + (rng.next() >> 1)});
    } else {
      batch.push_back({OpKind::kDelete, 1 + rng.next_below(span), 0});
    }
  }
  return batch;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.flag("sizes", "comma list of log2 tree sizes", "16,18,20")
      .flag("fanout", "tree fanout", "64")
      .flag("fill", "bulk-load fill factor", "0.69")
      .flag("epochs", "update epochs served before the crash window", "12")
      .flag("ops", "update ops per epoch", "512")
      .flag("snapshot-every", "logged epochs between cadence snapshots", "4")
      .flag("retain", "snapshots retained per shard (at least 2)", "2")
      .flag("torn", "bytes torn off the last durable write at the crash", "32")
      .flag("disk", "modeled sequential disk read bandwidth in GB/s", "2.0")
      .flag("pcie", "link bandwidth in GB/s", "12.0")
      .flag("seed", "history seed", "1")
      .flag("check", "enforce the E15 acceptance gate (exit 1 on failure)", "false")
      .flag("csv", "also write the table as CSV to this path", "(off)");
  if (!cli.parse(argc, argv)) return 1;

  const auto sizes = hb::parse_log_list(cli.get_string("sizes", "16,18,20"));
  const unsigned fanout = static_cast<unsigned>(cli.get_uint("fanout", 64));
  const double fill = cli.get_double("fill", 0.69);
  const int epochs = static_cast<int>(cli.get_uint("epochs", 12));
  const std::size_t ops_per_epoch = cli.get_uint("ops", 512);
  const std::uint64_t torn = cli.get_uint("torn", 32);
  const std::uint64_t seed = cli.get_uint("seed", 1);
  const bool check = cli.get_bool("check", false);

  TransferModel link;
  link.gigabytes_per_second = cli.get_double("pcie", 12.0);

  hb::print_header("Recovery sweep: snapshot+log cold start vs bulk rebuild",
                   "extension E15 (durability; docs/fault_tolerance.md#restart)");

  const auto dir = std::filesystem::temp_directory_path() / "harmonia_ext_recovery";
  std::filesystem::remove_all(dir);

  Table table({"size", "keys", "base", "snap epoch", "replayed ops",
               "snap (MB)", "log (KB)", "recover (ms)", "rebuild (ms)",
               "speedup"});

  bool gate_ok = true;
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    const unsigned lg = sizes[s];
    const std::uint64_t n = 1ULL << lg;
    const auto keys = queries::make_tree_keys(n, seed);
    const auto entries = hb::entries_for(keys);

    persist::DurabilityConfig cfg;
    cfg.dir = (dir / ("size-" + std::to_string(lg))).string();
    cfg.snapshot_every = cli.get_uint("snapshot-every", 4);
    cfg.retain = cli.get_uint("retain", 2);
    cfg.timing.disk_gigabytes_per_second = cli.get_double("disk", 2.0);

    // The crash lands between the final epoch's log append and its
    // snapshot point: recovery starts from the last cadence snapshot
    // and replays the logged tail — the "snapshot+log" cold start the
    // sweep is named for (a torn final record truncates away).
    const double crash = epochs + 0.25;
    persist::DurabilityDomain domain(cfg, 1);
    domain.set_crash_time(crash);

    IndexOptions opts;
    opts.fanout = fanout;
    opts.fill_factor = fill;

    gpusim::Device dev(hb::bench_spec());
    HarmoniaIndex index(dev, HarmoniaTree::build(entries, fanout, fill), opts);

    Xoshiro256 rng(seed * 9176 + lg);
    for (int e = 1; e <= epochs; ++e) {
      const auto batch = make_batch(rng, keys, ops_per_epoch);
      domain.shard(0)->log_batch(static_cast<std::uint64_t>(e), batch,
                                 static_cast<double>(e));
      index.commit_staged(index.stage_update(batch));
      domain.shard(0)->maybe_snapshot(static_cast<std::uint64_t>(e), index,
                                      /*force=*/false, e + 0.5);
    }
    domain.apply_crash(0, torn);

    // Cold-start a fresh stack from the crashed directory.
    persist::RecoveryManager rm(cfg, serve::EpochConfig{}.seconds_per_op);
    persist::RecoveryManager::Materials mat = rm.load_shard(0);
    gpusim::Device dev2(hb::bench_spec());
    std::unique_ptr<HarmoniaIndex> recovered;
    if (mat.snapshot.has_value()) {
      IndexOptions ropts = opts;
      ropts.fill_factor = mat.snapshot->extras.fill_factor;
      recovered = std::make_unique<HarmoniaIndex>(
          dev2, std::move(mat.snapshot->tree), ropts);
    } else {
      recovered = std::make_unique<HarmoniaIndex>(
          dev2, HarmoniaTree::build(entries, fanout, fill), opts);
    }
    const persist::RecoveryReport rep =
        rm.finish(std::move(mat), *recovered, link, n);
    recovered->tree().validate();

    const double rebuild_s = persist::RecoveryManager::modeled_rebuild_seconds(
        n, recovered->tree(), link);
    const double speedup = rebuild_s / rep.modeled_seconds;

    table.add(lg, n, rep.from_snapshot ? "snapshot" : "rebuild",
              rep.snapshot_epoch, rep.ops_replayed,
              static_cast<double>(rep.snapshot_bytes) / 1e6,
              static_cast<double>(rep.log_bytes) / 1e3,
              rep.modeled_seconds * 1e3, rebuild_s * 1e3, speedup);

    if (s + 1 == sizes.size()) {
      if (!rep.from_snapshot) {
        std::cerr << "CHECK FAILED: largest size (2^" << lg
                  << ") fell back to a bulk rebuild — the speedup would"
                  << " compare the rebuild to itself\n";
        gate_ok = false;
      }
      if (speedup < 5.0) {
        std::cerr << "CHECK FAILED: largest size (2^" << lg
                  << ") cold start is only " << speedup
                  << "x faster than the bulk rebuild (gate: >= 5x)\n";
        gate_ok = false;
      }
    }
  }
  hb::emit(cli, table);
  std::filesystem::remove_all(dir);

  std::cout << "\nexpected: every size cold-starts from a snapshot and"
            << " replays only the logged tail; the speedup over the bulk"
            << " rebuild grows with tree size and clears 5x at the top\n";
  if (check && !gate_ok) return 1;
  return 0;
}
