// Differential test of the two ways one device gets served: a
// ShardedServer built over a bare HarmoniaIndex (which wraps the index in a non-owning one-shard ShardedIndex) against a
// ShardedServer over a ShardedIndex built from a one-shard
// sample_balanced plan (what ServingStack builds), on the same keys and
// the same stream. They must agree byte for byte: every response, every
// ServerReport field, the metrics dump and the request trace. The matrix
// covers the three epoch modes (delta with a small overlay cap so
// compactions occur), persistence off and on, and a fault plan with
// transfer slowdowns and resync corruptions.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "btree/btree.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "queries/workload.hpp"
#include "serve/workload.hpp"
#include "shard/sharded_server.hpp"
#include "report_compare.hpp"
#include "test_dir.hpp"

namespace harmonia::shard {
namespace {

struct Case {
  serve::EpochMode mode;
  bool persist;
  bool faults;
};

std::string to_name(const Case& c) {
  const char* mode = c.mode == serve::EpochMode::kQuiesce   ? "Quiesce"
                     : c.mode == serve::EpochMode::kOverlap ? "Overlap"
                                                            : "Delta";
  return std::string{mode} + (c.persist ? "Persist" : "Volatile") +
         (c.faults ? "Faults" : "Clean");
}

std::string case_name(const testing::TestParamInfo<Case>& info) {
  return to_name(info.param);
}

void PrintTo(const Case& c, std::ostream* os) { *os << to_name(c); }

ShardedOptions index_options() {
  ShardedOptions o;
  o.index.fanout = 16;
  // Gapless leaves: delta-mode inserts land in the overlay, so the small
  // overlay cap below exhausts and compactions occur.
  o.index.fill_factor = 1.0;
  o.device = gpusim::titan_v();
  o.device.num_sms = 8;
  o.device_global_bytes = 256 << 20;
  return o;
}

/// What one backend run leaves behind.
struct RunResult {
  serve::ServerReport report;
  std::string metrics;
  std::string trace;
};

class SingleShardEquivalence : public testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    keys_ = queries::make_tree_keys(1 << 12, 7);
    for (Key k : keys_) entries_.push_back({k, btree::value_for_key(k)});
    serve::OpenLoopSpec spec;
    spec.arrivals_per_second = 5e6;
    spec.count = 6000;
    spec.update_fraction = 0.25;
    spec.range_fraction = 0.05;
    spec.scan_fraction = 0.05;
    spec.range_span = 64;
    spec.seed = 11;
    stream_ = serve::make_open_loop(keys_, spec);
    dir_ = testing_support::unique_test_dir();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  serve::ServeOptions options(const std::string& side) const {
    const Case& c = GetParam();
    serve::ServeOptions o;
    o.batch.max_batch = 128;
    o.batch.max_wait = 60e-6;
    o.batch.queue_capacity = 1024;
    o.epoch.max_buffered = 96;
    o.epoch.max_wait = 300e-6;
    o.epoch.mode = c.mode;
    o.epoch.overlay_capacity = 48;
    if (c.persist) {
      o.persist.dir = (dir_ / side).string();
      o.persist.snapshot_every = 3;
    }
    if (c.faults) {
      o.faults = fault::FaultPlan::parse(
          "slow@0.0002:shard=0,factor=5,duration=0.0006;"
          "corrupt@0.0003:shard=0,bytes=8;corrupt@0.0007:shard=0,bytes=4;"
          "slow@0.0009:shard=0,factor=3,duration=0.0004");
    }
    return o;
  }

  /// Runs `make_backend` with its own registry, trace and (when the case
  /// persists) durability domain.
  template <typename MakeBackend>
  RunResult run(const std::string& side, MakeBackend make_backend) const {
    serve::ServeOptions o = options(side);
    obs::MetricsRegistry metrics;
    obs::TraceRecorder trace;
    o.obs = {&metrics, &trace};
    std::unique_ptr<persist::DurabilityDomain> domain;
    if (o.persist.enabled()) {
      domain = std::make_unique<persist::DurabilityDomain>(o.persist, 1);
      o.durability = domain.get();
    }
    RunResult r;
    r.report = make_backend(o)->run(stream_);
    r.metrics = metrics.prometheus_text();
    std::ostringstream csv;
    trace.write_csv(csv);
    r.trace = csv.str();
    return r;
  }

  std::vector<Key> keys_;
  std::vector<btree::Entry> entries_;
  std::vector<serve::Request> stream_;
  std::filesystem::path dir_;
};

TEST_P(SingleShardEquivalence, ShardedAtOneShardMatchesServer) {
  const ShardedOptions shopts = index_options();
  gpusim::DeviceSpec spec = shopts.device;
  spec.global_mem_bytes = shopts.device_global_bytes;
  gpusim::Device device(spec);
  btree::BTree builder(shopts.index.fanout);
  builder.bulk_load(entries_, shopts.index.fill_factor);
  HarmoniaIndex single(device, HarmoniaTree::from_btree(builder), shopts.index);
  ShardedIndex sharded(entries_, ShardPlan::sample_balanced(keys_, 1), shopts);

  const RunResult s = run("server", [&](const serve::ServeOptions& o) {
    return std::make_unique<shard::ShardedServer>(single, o);
  });
  const RunResult k = run("sharded", [&](const serve::ServeOptions& o) {
    return std::make_unique<ShardedServer>(sharded, o);
  });

  // The stream must actually exercise what the case names.
  EXPECT_GT(s.report.epochs, 2u);
  if (GetParam().mode == serve::EpochMode::kIncremental) {
    EXPECT_GT(s.report.patch_epochs, 0u);
    EXPECT_GT(s.report.compaction_epochs, 0u);
  }
  if (GetParam().persist) {
    EXPECT_GT(s.report.log_batches, 0u);
  }
  if (GetParam().faults) {
    EXPECT_GT(s.report.faults.slowdown_windows, 0u);
    EXPECT_GT(s.report.faults.corruptions, 0u);
  }

  testing_support::expect_same_report(s.report, k.report);
  EXPECT_EQ(s.metrics, k.metrics);
  EXPECT_EQ(s.trace, k.trace);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SingleShardEquivalence,
    testing::Values(Case{serve::EpochMode::kQuiesce, false, false},
                    Case{serve::EpochMode::kQuiesce, false, true},
                    Case{serve::EpochMode::kQuiesce, true, false},
                    Case{serve::EpochMode::kQuiesce, true, true},
                    Case{serve::EpochMode::kOverlap, false, false},
                    Case{serve::EpochMode::kOverlap, false, true},
                    Case{serve::EpochMode::kOverlap, true, false},
                    Case{serve::EpochMode::kOverlap, true, true},
                    Case{serve::EpochMode::kIncremental, false, false},
                    Case{serve::EpochMode::kIncremental, false, true},
                    Case{serve::EpochMode::kIncremental, true, false},
                    Case{serve::EpochMode::kIncremental, true, true}),
    case_name);

}  // namespace
}  // namespace harmonia::shard
