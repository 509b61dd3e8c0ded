// Microbenchmarks of the tree structures' host-side operations: CPU
// B+tree ops, Harmonia serialization and host search, batch-update apply.
#include <benchmark/benchmark.h>

#include <sstream>
#include <string>

#include "btree/btree.hpp"
#include "common/rng.hpp"
#include "harmonia/tree.hpp"
#include "harmonia/update.hpp"
#include "queries/batch.hpp"
#include "queries/workload.hpp"

namespace {

using namespace harmonia;

std::vector<btree::Entry> entries_for(const std::vector<Key>& keys) {
  std::vector<btree::Entry> out;
  out.reserve(keys.size());
  for (Key k : keys) out.push_back({k, btree::value_for_key(k)});
  return out;
}

void BM_BTreeBulkLoad(benchmark::State& state) {
  const auto keys = queries::make_tree_keys(1ULL << static_cast<unsigned>(state.range(0)), 1);
  const auto entries = entries_for(keys);
  for (auto _ : state) {
    btree::BTree tree(64);
    tree.bulk_load(entries);
    benchmark::DoNotOptimize(tree.height());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(keys.size()));
}
BENCHMARK(BM_BTreeBulkLoad)->Arg(14)->Arg(17);

void BM_BTreeInsertRandom(benchmark::State& state) {
  Xoshiro256 rng(2);
  btree::BTree tree(64);
  for (auto _ : state) {
    tree.insert(rng.next(), 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeInsertRandom);

void BM_BTreeSearch(benchmark::State& state) {
  const auto keys = queries::make_tree_keys(1 << 17, 3);
  const auto tree = btree::make_tree(keys, 64);
  Xoshiro256 rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.search(keys[rng.next_below(keys.size())]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeSearch);

void BM_HarmoniaFromBTree(benchmark::State& state) {
  const auto keys = queries::make_tree_keys(1 << 16, 5);
  const auto bt = btree::make_tree(keys, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HarmoniaTree::from_btree(bt).num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * (1 << 16));
}
BENCHMARK(BM_HarmoniaFromBTree);

void BM_HarmoniaHostSearch(benchmark::State& state) {
  const auto keys = queries::make_tree_keys(1 << 17, 6);
  const auto tree = HarmoniaTree::from_btree(btree::make_tree(keys, 64));
  Xoshiro256 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.search(keys[rng.next_below(keys.size())]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HarmoniaHostSearch);

void BM_BatchUpdateApply(benchmark::State& state) {
  const auto keys = queries::make_tree_keys(1 << 15, 8);
  queries::BatchSpec spec;
  spec.size = 1 << 12;
  spec.insert_fraction = 0.05;
  spec.seed = 9;
  const auto ops = queries::make_update_batch(keys, spec);
  for (auto _ : state) {
    state.PauseTiming();
    BatchUpdater updater(HarmoniaTree::from_btree(btree::make_tree(keys, 64)));
    state.ResumeTiming();
    benchmark::DoNotOptimize(updater.apply(ops).total_ops());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(ops.size()));
}
BENCHMARK(BM_BatchUpdateApply);

/// A serving-scale tree: 2^21 keys at fanout 64 (an image of about 50 MB).
HarmoniaTree image_tree() {
  return HarmoniaTree::from_btree(btree::make_tree(queries::make_tree_keys(1 << 21, 10), 64));
}

void BM_ImageSave(benchmark::State& state) {
  const auto tree = image_tree();
  std::int64_t bytes = 0;
  for (auto _ : state) {
    std::stringstream buf;
    tree.save(buf);
    bytes = static_cast<std::int64_t>(buf.tellp());
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_ImageSave)->Unit(benchmark::kMillisecond);

void BM_ImageLoad(benchmark::State& state) {
  std::stringstream saved;
  image_tree().save(saved);
  const std::string image = saved.str();
  for (auto _ : state) {
    state.PauseTiming();
    std::stringstream buf(image);
    state.ResumeTiming();
    benchmark::DoNotOptimize(HarmoniaTree::load(buf).num_keys());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(image.size()));
}
BENCHMARK(BM_ImageLoad)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
