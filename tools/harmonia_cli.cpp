// harmonia_cli — build, persist, inspect, query, and update Harmonia
// indexes from the command line.
//
//   harmonia_cli build  --size=20 --fanout=64 --out=idx.bin
//   harmonia_cli info   --index=idx.bin
//   harmonia_cli query  --index=idx.bin --queries=16 --dist=zipfian
//   harmonia_cli range  --index=idx.bin --lo=<key> --hi=<key>
//   harmonia_cli update --index=idx.bin --batch=14 --inserts=0.05 --out=idx2.bin
//
// Workload keys are synthetic (seeded, reproducible); the index file is
// the versioned format of docs/persistence_format.md.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "common/expect.hpp"
#include "common/units.hpp"
#include "harmonia/index.hpp"
#include "queries/workload.hpp"

using namespace harmonia;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: harmonia_cli <build|info|query|range|update> [flags]\n"
               "run a subcommand with --help for its flags\n");
  return 2;
}

HarmoniaTree load_index(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open index file: %s\n", path.c_str());
    std::exit(1);
  }
  return HarmoniaTree::load(in);
}

void save_index(const HarmoniaTree& tree, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write index file: %s\n", path.c_str());
    std::exit(1);
  }
  try {
    tree.save(out);
    out.flush();  // the image's tail may still sit in the stream buffer
  } catch (const ContractViolation&) {
    if (out) throw;  // save only throws on its own after a stream failure
  }
  if (!out) {
    std::fprintf(stderr, "write failure on index file: %s\n", path.c_str());
    std::exit(1);
  }
}

int cmd_build(int argc, const char* const* argv) {
  Cli cli;
  cli.flag("size", "log2 number of keys", "18")
      .flag("fanout", "tree fanout", "64")
      .flag("fill", "bulk-load fill factor", "0.69")
      .flag("seed", "key-generation seed", "1")
      .flag("out", "output index path", "harmonia_index.bin");
  if (!cli.parse(argc, argv)) return 2;

  const std::uint64_t n = 1ULL << cli.get_uint("size", 18);
  const auto fanout = static_cast<unsigned>(cli.get_uint("fanout", 64));
  const auto keys = queries::make_tree_keys(n, cli.get_uint("seed", 1));
  const auto tree =
      HarmoniaTree::build(btree::entries_for(keys), fanout, cli.get_double("fill", 0.69));
  const auto out = cli.get_string("out", "harmonia_index.bin");
  save_index(tree, out);
  std::printf("built %llu keys (fanout %u, height %u, %u nodes) -> %s\n",
              static_cast<unsigned long long>(tree.num_keys()), fanout, tree.height(),
              tree.num_nodes(), out.c_str());
  return 0;
}

int cmd_info(int argc, const char* const* argv) {
  Cli cli;
  cli.flag("index", "index file", "harmonia_index.bin");
  if (!cli.parse(argc, argv)) return 2;
  const auto tree = load_index(cli.get_string("index", "harmonia_index.bin"));
  std::printf("keys          : %llu\n",
              static_cast<unsigned long long>(tree.num_keys()));
  std::printf("fanout        : %u\n", tree.fanout());
  std::printf("height        : %u\n", tree.height());
  std::printf("nodes         : %u (leaves %u)\n", tree.num_nodes(), tree.num_leaves());
  std::printf("key region    : %s\n",
              bytes_human(tree.key_region().size() * sizeof(Key)).c_str());
  std::printf("prefix-sum    : %s\n",
              bytes_human(tree.prefix_sum().size() * sizeof(std::uint32_t)).c_str());
  std::printf("value region  : %s\n",
              bytes_human(tree.value_region().size() * sizeof(Value)).c_str());
  const double occupancy =
      static_cast<double>(tree.num_keys()) /
      static_cast<double>(static_cast<std::uint64_t>(tree.num_leaves()) *
                          tree.keys_per_node());
  std::printf("leaf occupancy: %.1f%%\n", occupancy * 100.0);
  return 0;
}

int cmd_query(int argc, const char* const* argv) {
  Cli cli;
  cli.flag("index", "index file", "harmonia_index.bin")
      .flag("queries", "log2 batch size", "16")
      .flag("dist", "distribution (uniform/zipfian/gaussian/sorted)", "uniform")
      .flag("psa", "psa mode (none/full/partial)", "partial")
      .flag("group-size", "NTG group size (0 = model-chosen)", "0")
      .flag("seed", "query seed", "2");
  if (!cli.parse(argc, argv)) return 2;

  auto tree = load_index(cli.get_string("index", "harmonia_index.bin"));
  // Query targets sample the index's own keys via the leaf level.
  std::vector<Key> keys;
  keys.reserve(tree.num_keys());
  for (const auto& e : tree.range(0, ~std::uint64_t{0} - 1)) keys.push_back(e.key);

  gpusim::Device device(gpusim::titan_v());
  HarmoniaIndex index(device, std::move(tree));

  const auto dist = queries::distribution_from_string(cli.get_string("dist", "uniform"));
  const auto qs = queries::make_queries(keys, 1ULL << cli.get_uint("queries", 16), dist,
                                        cli.get_uint("seed", 2));

  QueryOptions qopts;
  const std::string psa = cli.get_string("psa", "partial");
  qopts.psa = psa == "none" ? PsaMode::kNone : PsaMode::kPartial;
  if (psa == "full") qopts.psa_override_bits = 64;
  const auto group_size = static_cast<unsigned>(cli.get_uint("group-size", 0));
  qopts.group_size = group_size == 0 ? kNtgModel : group_size;

  const auto r = index.search(qs, qopts);
  std::size_t hits = 0;
  for (Value v : r.values) hits += (v != kNotFound);
  std::printf("%zu/%zu hits | %s | group size %u | %u sorted bits\n", hits,
              r.values.size(), throughput_human(r.throughput()).c_str(),
              r.group_size_used, r.sorted_bits);
  std::printf("kernel %.1f us + sort %.1f us (simulated TITAN V)\n",
              r.kernel_seconds * 1e6, r.sort_seconds * 1e6);
  std::printf("global txns %llu | mem divergence %.3f | warp coherence %.3f\n",
              static_cast<unsigned long long>(r.search.metrics.global_transactions()),
              r.search.metrics.memory_divergence(), r.search.metrics.warp_coherence());
  return 0;
}

int cmd_range(int argc, const char* const* argv) {
  Cli cli;
  cli.flag("index", "index file", "harmonia_index.bin")
      .flag("lo", "range lower bound (inclusive)", "0")
      .flag("hi", "range upper bound (inclusive)", "1000000")
      .flag("limit", "max entries to print (0 = all)", "20");
  if (!cli.parse(argc, argv)) return 2;
  const auto tree = load_index(cli.get_string("index", "harmonia_index.bin"));
  const auto lo = cli.get_uint("lo", 0);
  const auto hi = cli.get_uint("hi", 1000000);
  const auto limit = cli.get_uint("limit", 20);
  const auto out = tree.range(lo, hi, limit);
  for (const auto& e : out) {
    std::printf("%llu -> %llu\n", static_cast<unsigned long long>(e.key),
                static_cast<unsigned long long>(e.value));
  }
  std::printf("(%zu entries%s)\n", out.size(),
              limit != 0 && out.size() >= limit ? ", truncated by --limit" : "");
  return 0;
}

int cmd_update(int argc, const char* const* argv) {
  Cli cli;
  cli.flag("index", "index file", "harmonia_index.bin")
      .flag("batch", "log2 batch size", "14")
      .flag("inserts", "insert fraction", "0.05")
      .flag("deletes", "delete fraction", "0.0")
      .flag("threads", "updater threads", "4")
      .flag("seed", "batch seed", "3")
      .flag("out", "output index path (default: overwrite input)", "(input)");
  if (!cli.parse(argc, argv)) return 2;

  const auto in_path = cli.get_string("index", "harmonia_index.bin");
  auto tree = load_index(in_path);
  std::vector<Key> keys;
  keys.reserve(tree.num_keys());
  for (const auto& e : tree.range(0, ~std::uint64_t{0} - 1)) keys.push_back(e.key);

  queries::BatchSpec spec;
  spec.size = 1ULL << cli.get_uint("batch", 14);
  spec.insert_fraction = cli.get_double("inserts", 0.05);
  spec.delete_fraction = cli.get_double("deletes", 0.0);
  spec.seed = cli.get_uint("seed", 3);
  const auto ops = queries::make_update_batch(keys, spec);

  BatchUpdater updater(std::move(tree));
  const auto stats =
      updater.apply(ops, static_cast<unsigned>(cli.get_uint("threads", 4)));
  updater.tree().validate();

  const auto out_path = cli.has("out") ? cli.get_string("out", in_path) : in_path;
  save_index(updater.tree(), out_path);
  std::printf("applied %llu ops (%llu updates, %llu inserts, %llu deletes; "
              "%llu failed) at %.2f Mops/s\n",
              static_cast<unsigned long long>(stats.total_ops()),
              static_cast<unsigned long long>(stats.updates),
              static_cast<unsigned long long>(stats.inserts),
              static_cast<unsigned long long>(stats.deletes),
              static_cast<unsigned long long>(stats.failed),
              stats.ops_per_second() / 1e6);
  std::printf("%s%llu aux nodes, %llu slots moved -> %s\n",
              stats.rebuilt ? "rebuilt: " : "no structural change: ",
              static_cast<unsigned long long>(stats.aux_nodes),
              static_cast<unsigned long long>(stats.moved_slots), out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  // Shift argv so each subcommand's Cli sees its own flags.
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  if (cmd == "build") return cmd_build(sub_argc, sub_argv);
  if (cmd == "info") return cmd_info(sub_argc, sub_argv);
  if (cmd == "query") return cmd_query(sub_argc, sub_argv);
  if (cmd == "range") return cmd_range(sub_argc, sub_argv);
  if (cmd == "update") return cmd_update(sub_argc, sub_argv);
  return usage();
}
