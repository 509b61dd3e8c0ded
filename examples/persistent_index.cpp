// Persistence: build once, save to disk, reload in a "new process", and
// serve queries from the reloaded image — the restart story a database
// or file-system index needs. The on-disk format is versioned and
// checksummed; load() validates structure before use.
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/timer.hpp"
#include "harmonia/index.hpp"
#include "queries/workload.hpp"

using namespace harmonia;

int main() {
  const auto path = std::filesystem::temp_directory_path() / "harmonia_index.bin";

  // --- "First process": build and persist. ---
  const auto keys = queries::make_tree_keys(1 << 19, 21);
  const auto entries = btree::entries_for(keys);

  {
    const auto tree = HarmoniaTree::build(entries, 64);
    WallTimer timer;
    std::ofstream out(path, std::ios::binary);
    tree.save(out);
    out.close();
    std::printf("saved   : %llu keys -> %s (%.1f MiB in %.1f ms)\n",
                static_cast<unsigned long long>(tree.num_keys()), path.c_str(),
                static_cast<double>(std::filesystem::file_size(path)) / (1 << 20),
                timer.elapsed_seconds() * 1e3);
  }

  // --- "Second process": reload, upload to the GPU, serve queries. ---
  WallTimer timer;
  std::ifstream in(path, std::ios::binary);
  auto tree = HarmoniaTree::load(in);  // checksum-verified + validated
  std::printf("loaded  : height %u, %u nodes in %.1f ms\n", tree.height(),
              tree.num_nodes(), timer.elapsed_seconds() * 1e3);

  gpusim::Device device(gpusim::titan_v());
  HarmoniaIndex index(device, std::move(tree));

  const auto qs =
      queries::make_queries(keys, 1 << 15, queries::Distribution::kUniform, 22);
  const auto result = index.search(qs);
  std::size_t hits = 0;
  for (Value v : result.values) hits += (v != kNotFound);
  std::printf("queried : %zu/%zu hits at %.2f Gq/s (simulated)\n", hits, qs.size(),
              result.throughput() / 1e9);

  std::filesystem::remove(path);
  return hits == qs.size() ? 0 : 1;
}
