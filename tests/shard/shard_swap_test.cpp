// System tests of the staggered per-shard swap path (overlap epoch mode
// on the sharded backend, docs/sharding.md): shards commit a staged
// epoch one at a time, so straddling range queries must be fenced or
// parked across the mixed-version window — every reassembled answer
// must still match one whole-epoch snapshot, never a mix of two. Also
// pins: per-response epochs monotone in completion order, the fence
// under a high swap frequency (the TSan stress), the pre-swap CRC32
// audit catching staged-image corruption without ever serving it.
//
// Epoch membership comes from the update responses (an inflight epoch
// lets the buffer outgrow max_buffered, so fixed-size blocks would
// reconstruct the wrong snapshots — see tests/serving_oracle.hpp). A
// straddling range reassembled across a staggered swap can only match a
// snapshot if the fence kept its shards on one version; the merge's
// internal same-epoch assertion is the second tripwire.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/expect.hpp"
#include "queries/workload.hpp"
#include "serve/workload.hpp"
#include "serving_oracle.hpp"
#include "shard/sharded_server.hpp"

namespace harmonia::shard {
namespace {

using namespace testing_support;

/// Epoch versions must be monotone per shard in completion order: once
/// a shard serves epoch N, no strictly-later completion from that shard
/// may report < N. (Global monotonicity cannot hold under staggered
/// swaps — shard A legitimately serves N+1 while shard B still serves
/// N; that window is exactly what the version fence + parking protect.)
/// Straddlers are skipped here: their cross-shard consistency is pinned
/// by the merge's same-epoch assertion and the snapshot oracles.
void check_epochs_monotonic_per_shard(
    const ShardPlan& plan, const std::vector<serve::Request>& stream,
    const serve::ServerReport& rep, unsigned num_shards) {
  struct Item {
    double t;
    unsigned epoch;
    unsigned shard;
  };
  std::vector<Item> items;
  for (const auto& resp : rep.responses) {
    if (resp.dropped) continue;
    ASSERT_LE(resp.epoch, rep.epochs);
    const serve::Request& req = stream[resp.id];
    unsigned s = 0;
    if (resp.kind == serve::RequestKind::kPoint) {
      s = plan.shard_of(req.key);
    } else if (resp.kind == serve::RequestKind::kRange) {
      const unsigned s0 = plan.shard_of(req.key);
      if (s0 != plan.shard_of(req.hi)) continue;  // straddler
      s = s0;
    } else {
      continue;  // updates complete at the last swap, owned by no shard
    }
    items.push_back({resp.completion, resp.epoch, s});
  }
  std::stable_sort(items.begin(), items.end(),
                   [](const Item& a, const Item& b) { return a.t < b.t; });
  std::vector<double> last_t(num_shards, -1.0);
  std::vector<unsigned> max_epoch(num_shards, 0);
  for (const Item& it : items) {
    if (it.t > last_t[it.shard]) {
      ASSERT_GE(it.epoch, max_epoch[it.shard])
          << "shard " << it.shard << " epoch went backwards at t=" << it.t;
      last_t[it.shard] = it.t;
    }
    max_epoch[it.shard] = std::max(max_epoch[it.shard], it.epoch);
  }
}

// Acceptance: staggered per-shard swaps with straddling ranges in
// flight — every reassembled answer matches one whole-epoch snapshot.
TEST(ShardSwap, StaggeredSwapsNeverMixSnapshots) {
  ShardedFixture f(4);

  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 5e6;
  spec.count = 8000;
  spec.update_fraction = 0.25;
  spec.range_fraction = 0.15;
  spec.range_span = 64;  // wide enough to straddle partition boundaries
  spec.seed = 42;
  const auto stream = serve::make_open_loop(f.keys, spec);

  serve::ServeOptions cfg;
  cfg.batch.max_batch = 256;
  cfg.batch.max_wait = 100e-6;
  cfg.batch.queue_capacity = 8192;  // no drops: every request oracle-checked
  cfg.batch.max_range_results = 16;
  cfg.epoch.max_buffered = 400;
  // A threaded apply: BatchUpdater::apply deals ops by leaf, so each
  // key's ops still apply in arrival order and the map oracle is exact
  // (BatchUpdater.ThreadedApplyKeepsPerKeyArrivalOrder pins that).
  cfg.epoch.apply_threads = 2;
  cfg.epoch.mode = serve::EpochMode::kOverlap;

  ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);

  ASSERT_EQ(rep.dropped, 0u);
  ASSERT_EQ(rep.responses.size(), stream.size());
  ASSERT_GE(rep.epochs, 3u);
  EXPECT_GT(rep.split_ranges, 0u);  // straddling fan-outs really happened
  // Overlap never runs the quiesce barrier.
  EXPECT_DOUBLE_EQ(rep.barrier_wait_seconds, 0.0);

  const auto snapshots = epoch_snapshots(f.keys, stream, rep);
  ASSERT_EQ(snapshots.size(), rep.epochs + 1);
  check_responses(stream, rep, snapshots, cfg.batch.max_range_results);

  // Every shard served work, and the final index equals the last snapshot.
  for (unsigned s = 0; s < 4; ++s) {
    EXPECT_GT(rep.shard_batches[s], 0u) << "shard " << s;
  }
  EXPECT_EQ(f.index.num_keys(), snapshots.back().size());
  expect_host_reads(f.index, snapshots.back());
}

// Acceptance: epoch versions are monotone in completion order — once any
// response reports epoch N, no later completion reports < N. With
// staggered swaps this is exactly the version-fence contract: responses
// dispatched against the old image complete before the fence lets newer
// ones through.
TEST(ShardSwap, EpochVersionsMonotonicInCompletionOrder) {
  ShardedFixture f(3);

  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 5e6;
  spec.count = 6000;
  spec.update_fraction = 0.3;
  spec.range_fraction = 0.10;
  spec.range_span = 64;
  spec.seed = 7;
  const auto stream = serve::make_open_loop(f.keys, spec);

  serve::ServeOptions cfg;
  cfg.batch.max_batch = 128;
  cfg.batch.queue_capacity = 1 << 14;
  cfg.epoch.max_buffered = 100;
  cfg.epoch.mode = serve::EpochMode::kOverlap;

  ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);
  ASSERT_GE(rep.epochs, 5u);
  check_epochs_monotonic_per_shard(f.index.plan(), stream, rep, 3);
}

// TSan stress: a small epoch buffer, a fast link, and a free modeled
// apply drive hundreds of staggered swap windows under a heavy update +
// straddling range mix, each window fencing in-flight fan-outs and
// parking fresh straddlers, with a threaded staged apply per shard (the
// real-thread TSan surface). The threaded apply deals ops by leaf, so
// the result does not depend on the thread schedule: every response and
// the final tree match the epoch-snapshot oracle, and the merge's
// internal same-epoch assertion is live on every straddler besides.
//
// The point lookups arrive in key order, so one shard at a time is hot:
// it fills size-triggered batches and dispatches its straddler pieces
// while the cold shard still queues their siblings when a staged image
// becomes ready. Only the version fence keeps the cold shard from
// swapping under those queued pieces (with uniform points both shards
// dispatch in step and a swap never finds a half-served fan-out).
TEST(ShardSwap, HighFrequencySwapFenceStress) {
  ShardedFixture f(2);

  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 5e6;
  spec.count = 12000;
  spec.update_fraction = 0.35;
  spec.range_fraction = 0.30;
  spec.range_span = 2048;  // ~half a shard span: most ranges straddle
  spec.dist = queries::Distribution::kSorted;
  spec.seed = 11;
  const auto stream = serve::make_open_loop(f.keys, spec);

  serve::ServeOptions cfg;
  cfg.batch.max_batch = 128;
  cfg.batch.max_wait = 60e-6;
  cfg.batch.queue_capacity = 1 << 15;
  cfg.batch.max_range_results = 12;
  cfg.epoch.max_buffered = 32;  // a swap window every few batches
  cfg.epoch.apply_threads = 2;
  cfg.epoch.seconds_per_op = 0.0;
  cfg.epoch.mode = serve::EpochMode::kOverlap;
  cfg.link.gigabytes_per_second = 100.0;
  cfg.link.latency_seconds = 1e-6;

  ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);

  ASSERT_EQ(rep.dropped, 0u);
  EXPECT_GE(rep.epochs, 30u);
  EXPECT_GT(rep.split_ranges, 1000u);
  check_epochs_monotonic_per_shard(f.index.plan(), stream, rep, 2);

  // Every update request was answered by some epoch, none lost across
  // the swap windows.
  std::uint64_t update_reqs = 0;
  for (const auto& r : stream)
    if (r.kind == serve::RequestKind::kUpdate) ++update_reqs;
  EXPECT_EQ(rep.update_requests, update_reqs);
  f.index.shard(0)->tree().validate();
  f.index.shard(1)->tree().validate();

  const auto snapshots = epoch_snapshots(f.keys, stream, rep);
  ASSERT_NO_FATAL_FAILURE(
      check_responses(stream, rep, snapshots, cfg.batch.max_range_results));
  EXPECT_EQ(f.index.num_keys(), snapshots.back().size());
  expect_host_reads(f.index, snapshots.back());
}

// Corruption faults against the *staged* image: the pre-swap CRC32
// audit must catch the armed corruption, charge a re-upload, and swap
// the clean image — the live image keeps serving, answers stay correct,
// and nothing sheds.
TEST(ShardSwap, PreSwapAuditCatchesStagedCorruption) {
  ShardedFixture f(2);

  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 4e6;
  spec.count = 6000;
  spec.update_fraction = 0.25;
  spec.range_fraction = 0.10;
  spec.range_span = 64;
  spec.seed = 13;
  const auto stream = serve::make_open_loop(f.keys, spec);

  serve::ServeOptions cfg;
  cfg.batch.max_batch = 256;
  cfg.batch.queue_capacity = 1 << 14;
  cfg.epoch.max_buffered = 200;
  cfg.epoch.mode = serve::EpochMode::kOverlap;
  for (const double at : {1e-4, 4e-4, 8e-4}) {
    fault::FaultEvent e;
    e.kind = fault::FaultKind::kResyncCorruption;
    e.at = at;
    e.shard = at < 5e-4 ? 0u : 1u;
    e.bytes = 3;
    cfg.faults.events.push_back(e);
  }
  cfg.validate(f.index.num_shards());

  ShardedServer server(f.index, cfg);
  const auto rep = server.run(stream);

  ASSERT_EQ(rep.dropped, 0u);
  ASSERT_GE(rep.epochs, 3u);
  // Injected -> detected -> mitigated, all on the staged image.
  EXPECT_EQ(rep.faults.corruptions, 3u);
  EXPECT_GT(rep.faults.audits, 0u);
  EXPECT_EQ(rep.faults.checksum_mismatches, 3u);
  EXPECT_EQ(rep.faults.reimages, 3u);
  EXPECT_EQ(rep.shed, 0u);  // the live image never stopped serving

  // Correctness survives the corrupted uploads: the audit swapped only
  // clean images.
  check_responses(stream, rep, epoch_snapshots(f.keys, stream, rep),
                  cfg.batch.max_range_results);
}

// Staggered swaps must replay deterministically — fences, parking, and
// threaded staged applies included.
TEST(ShardSwap, DeterministicReplay) {
  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 4e6;
  spec.count = 4000;
  spec.update_fraction = 0.25;
  spec.range_fraction = 0.20;
  spec.range_span = 1024;
  spec.seed = 5;

  auto run_once = [&] {
    ShardedFixture f(3);
    const auto stream = serve::make_open_loop(f.keys, spec);
    serve::ServeOptions cfg;
    cfg.batch.max_batch = 128;
    cfg.batch.queue_capacity = 1 << 14;
    cfg.epoch.max_buffered = 80;
    cfg.epoch.apply_threads = 2;
    cfg.epoch.mode = serve::EpochMode::kOverlap;
    ShardedServer server(f.index, cfg);
    return server.run(stream);
  };

  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.responses.size(), b.responses.size());
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    EXPECT_EQ(a.responses[i].id, b.responses[i].id);
    EXPECT_DOUBLE_EQ(a.responses[i].completion, b.responses[i].completion);
    EXPECT_EQ(a.responses[i].epoch, b.responses[i].epoch);
  }
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.split_ranges, b.split_ranges);
  EXPECT_DOUBLE_EQ(a.epoch_swap_wait_seconds, b.epoch_swap_wait_seconds);
}

}  // namespace
}  // namespace harmonia::shard
