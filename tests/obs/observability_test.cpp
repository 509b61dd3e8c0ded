// End-to-end observability over the serving stack: attaching a registry
// and trace recorder must not change a single response, the exported
// counters must agree with the run report, the report invariants must
// hold over random fault plans (the property test the accounting bugs
// motivated), and two same-seed observed runs must dump byte-identical
// metrics and traces (the in-code twin of the CI determinism gate).
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/expect.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "queries/workload.hpp"
#include "serve/workload.hpp"
#include "serving_oracle.hpp"
#include "shard/backend_factory.hpp"
#include "shard/sharded_server.hpp"

namespace harmonia {
namespace {

using namespace testing_support;

std::vector<serve::Request> test_stream(const std::vector<Key>& keys,
                                        std::uint64_t seed,
                                        std::uint64_t count = 4000) {
  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 4e6;
  spec.count = count;
  spec.update_fraction = 0.15;
  spec.range_fraction = 0.10;
  spec.range_span = 64;
  spec.seed = seed;
  return serve::make_open_loop(keys, spec);
}

serve::ServeOptions server_config() {
  serve::ServeOptions cfg;
  cfg.batch.max_batch = 128;
  cfg.batch.max_wait = 80e-6;
  cfg.batch.queue_capacity = 512;  // small enough to exercise rejections
  cfg.epoch.max_buffered = 250;
  return cfg;
}

fault::FaultPlan random_plan(unsigned shards, std::uint64_t seed,
                             bool with_losses = false) {
  fault::FaultPlan::RandomSpec rspec;
  rspec.horizon = 1.2e-3;
  rspec.events_per_second = 4000;
  rspec.num_shards = shards;
  // Losses are exercised separately (with_losses).
  if (!with_losses)
    rspec.weights[static_cast<int>(fault::FaultKind::kShardLost)] = 0.0;
  return fault::FaultPlan::random(rspec, seed);
}

void expect_same_responses(const serve::ServerReport& a,
                           const serve::ServerReport& b) {
  ASSERT_EQ(a.responses.size(), b.responses.size());
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    ASSERT_EQ(a.responses[i].id, b.responses[i].id) << "response " << i;
    ASSERT_EQ(a.responses[i].value, b.responses[i].value) << "response " << i;
    ASSERT_EQ(a.responses[i].dropped, b.responses[i].dropped) << "response " << i;
    ASSERT_DOUBLE_EQ(a.responses[i].completion, b.responses[i].completion)
        << "response " << i;
  }
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

// Attaching the observer must be invisible to the simulation: every
// response, drop decision, and virtual timestamp identical to a run with
// no observer — on the single-device and the sharded path, under faults.
TEST(Observability, ObserverDoesNotPerturbSingleDeviceRun) {
  auto run = [](bool observed) {
    ServerFixture f(1 << 12, 16, small_device());
    serve::ServeOptions cfg = server_config();
    cfg.faults = fault::FaultPlan::random(
        [] {
          fault::FaultPlan::RandomSpec r;
          r.horizon = 1.0e-3;
          r.events_per_second = 3000;
          r.weights[static_cast<int>(fault::FaultKind::kShardLost)] = 0.0;
          return r;
        }(),
        5);
    obs::MetricsRegistry metrics;
    obs::TraceRecorder trace;
    if (observed) cfg.obs = {&metrics, &trace};
    shard::ShardedServer server(f.index, cfg);
    auto report = server.run(test_stream(f.keys, 9));
    if (observed) {
      EXPECT_GT(metrics.prometheus_text().size(), 0u);
      EXPECT_FALSE(trace.empty());
    }
    return report;
  };
  expect_same_responses(run(false), run(true));
}

TEST(Observability, ObserverDoesNotPerturbShardedRun) {
  auto run = [](bool observed) {
    ShardedFixture f(4);
    serve::ServeOptions cfg;
    cfg.batch.max_batch = 128;
    cfg.batch.max_wait = 80e-6;
    cfg.batch.queue_capacity = 512;
    cfg.epoch.max_buffered = 250;
    cfg.faults = random_plan(4, 17);
    obs::MetricsRegistry metrics;
    obs::TraceRecorder trace;
    if (observed) cfg.obs = {&metrics, &trace};
    shard::ShardedServer server(f.index, cfg);
    return server.run(test_stream(f.keys, 21));
  };
  expect_same_responses(run(false), run(true));
}

// The exported counters are the report, renamed: cross-check every pair
// that must agree. This is the metric-level half of the accounting
// identity the report builders assert internally.
TEST(Observability, MetricsAgreeWithReport) {
  ShardedFixture f(4);
  serve::ServeOptions cfg;
  cfg.batch.max_batch = 128;
  cfg.batch.max_wait = 80e-6;
  cfg.batch.queue_capacity = 256;  // force some rejections
  cfg.epoch.max_buffered = 250;
  cfg.faults = random_plan(4, 17);
  obs::MetricsRegistry metrics;
  obs::TraceRecorder trace;
  cfg.obs = {&metrics, &trace};
  shard::ShardedServer server(f.index, cfg);
  const auto report = server.run(test_stream(f.keys, 21, 6000));

  EXPECT_EQ(metrics.counter("serve_epochs_total").value(), report.epochs);
  EXPECT_EQ(metrics.counter("shard_split_ranges_total").value(),
            report.split_ranges);
  EXPECT_EQ(metrics.counter("fault_slowdown_windows_total").value(),
            report.faults.slowdown_windows);
  EXPECT_EQ(metrics.counter("fault_dispatch_failures_total").value(),
            report.faults.dispatch_failures);
  EXPECT_EQ(metrics.counter("fault_corruptions_total").value(),
            report.faults.corruptions);
  EXPECT_EQ(metrics.counter("fault_checksum_mismatches_total").value(),
            report.faults.checksum_mismatches);
  EXPECT_DOUBLE_EQ(metrics.gauge("serve_makespan_seconds").value(),
                   report.makespan);
  EXPECT_DOUBLE_EQ(metrics.gauge("serve_busy_seconds").value(),
                   report.busy_seconds);

  // Per-shard scheduler admissions sum to the schedulers' view of the
  // stream (every sub-request, unlike report.shard_admitted — see the
  // serve::ServerReport field comment for why these two differ).
  std::uint64_t sched_admitted = 0;
  std::uint64_t sched_batches = 0;
  for (unsigned s = 0; s < 4; ++s) {
    for (const char* kind : {"point", "range"}) {
      const std::string labels = std::string{"{kind=\""} + kind + "\",shard=\"" +
                                 std::to_string(s) + "\"}";
      sched_admitted += metrics.counter("serve_admitted_total" + labels).value();
      sched_batches += metrics.counter("serve_batches_total" + labels).value();
    }
  }
  EXPECT_GT(sched_admitted, 0u);
  EXPECT_EQ(sched_batches, report.batches);

  // Every admitted query was stamped queue-enter and every arrival got
  // exactly one reply stamp.
  std::uint64_t replies = 0;
  for (const auto& e : trace.events())
    if (e.stage == obs::Stage::kReply) ++replies;
  EXPECT_EQ(replies, report.arrivals);
}

// Serving books shard routing where the report does: each shard's
// routed-query counter equals ServerReport::shard_queries for it, so the
// per-shard sum equals the report's total too. The offline-only
// ShardedIndex families are not registered by a server.
TEST(Observability, RoutedQueriesMatchShardQueries) {
  ShardedFixture f(4);
  serve::ServeOptions cfg;
  cfg.batch.max_batch = 128;
  cfg.batch.max_wait = 80e-6;
  cfg.epoch.max_buffered = 250;
  obs::MetricsRegistry metrics;
  cfg.obs = {&metrics, nullptr};
  shard::ShardedServer server(f.index, cfg);
  const auto report = server.run(test_stream(f.keys, 21, 6000));

  std::uint64_t routed = 0;
  std::uint64_t queries = 0;
  for (unsigned s = 0; s < 4; ++s) {
    const std::uint64_t got =
        metrics.counter("shard_routed_queries_total{shard=\"" + std::to_string(s) + "\"}")
            .value();
    EXPECT_EQ(got, report.shard_queries[s]) << "shard " << s;
    routed += got;
    queries += report.shard_queries[s];
  }
  EXPECT_GT(routed, 0u);
  EXPECT_EQ(routed, queries);
  const std::string dump = metrics.prometheus_text();
  EXPECT_EQ(dump.find("shard_search_batches_total"), std::string::npos);
}

/// The registered series of a Prometheus dump with label values
/// stripped: `x{kind="a",shard="0"} 3` -> `x{kind,shard}`.
std::set<std::string> metric_families(const std::string& dump) {
  std::set<std::string> out;
  std::istringstream in(dump);
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    const std::string series = line.substr(0, line.find(' '));
    std::string family;
    bool in_value = false;
    for (const char c : series) {
      if (c == '"') {
        in_value = !in_value;
      } else if (!in_value && c != '=') {
        family += c;
      }
    }
    out.insert(family);
  }
  return out;
}

// Every topology emits the same metric set: one device registers the
// shard_* routing families and the unlabelled fleet epoch series exactly
// like a two-shard fleet does on the same stream.
TEST(Observability, MetricFamiliesMatchAcrossShardCounts) {
  const auto families = [](unsigned shards) {
    shard::TopologySpec topo;
    topo.log2_keys = 12;
    topo.fanout = 16;
    topo.shards = shards;
    topo.device = small_device();
    topo.device_global_bytes = 256 << 20;
    serve::ServeOptions cfg = server_config();
    cfg.epoch.mode = serve::EpochMode::kOverlap;
    obs::MetricsRegistry metrics;
    cfg.obs = {&metrics, nullptr};
    shard::ServingStack stack(topo, cfg);
    stack.backend().run(test_stream(stack.keys(), 5));
    return metric_families(metrics.prometheus_text());
  };
  const std::set<std::string> one = families(1);
  EXPECT_EQ(one.count("serve_epochs_total"), 1u);
  EXPECT_EQ(one.count("shard_routed_queries_total{shard}"), 1u);
  EXPECT_EQ(one, families(2));
}

// The property test the accounting bugs motivated: for a sweep of seeds
// and shard counts, under random fault plans, the counter identities
// (arrivals == admitted + dropped; admitted == completed + shed +
// update_requests; one response per arrival; per-shard sums) must hold.
// check_invariants() runs inside run() and throws on violation — the
// explicit calls below also guard against it being silently skipped.
TEST(Observability, InvariantsHoldOverRandomFaultPlans) {
  for (const unsigned shards : {1u, 3u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
      SCOPED_TRACE(testing::Message() << shards << " shard(s), seed " << seed);
      ShardedFixture f(shards);
      serve::ServeOptions cfg;
      cfg.batch.max_batch = 128;
      cfg.batch.max_wait = 80e-6;
      cfg.batch.queue_capacity = 256;
      cfg.epoch.max_buffered = 200;
      cfg.faults = random_plan(shards, seed * 13 + 1);
      obs::MetricsRegistry metrics;
      cfg.obs = {&metrics, nullptr};
      shard::ShardedServer server(f.index, cfg);
      const auto report = server.run(test_stream(f.keys, seed * 7 + 3));
      ASSERT_NO_THROW(report.check_invariants());
      EXPECT_GT(report.arrivals, 0u);
      EXPECT_EQ(report.arrivals, report.admitted + report.dropped);
      EXPECT_EQ(report.admitted,
                report.completed + report.shed + report.update_requests);
    }
  }
  // Single-device ShardedServer under its own random plans.
  for (const std::uint64_t seed : {11u, 12u}) {
    SCOPED_TRACE(testing::Message() << "single device, seed " << seed);
    ServerFixture f(1 << 12, 16, small_device());
    serve::ServeOptions cfg = server_config();
    cfg.faults = random_plan(1, seed);
    shard::ShardedServer server(f.index, cfg);
    const auto report = server.run(test_stream(f.keys, seed));
    ASSERT_NO_THROW(report.check_invariants());
    EXPECT_EQ(report.arrivals, report.admitted + report.dropped);
  }
}

TEST(Observability, ViolatedInvariantThrowsWithDiagnostic) {
  serve::ServerReport report;
  report.arrivals = 10;
  report.admitted = 9;
  report.dropped = 0;  // 9 + 0 != 10
  EXPECT_THROW(report.check_invariants(), ContractViolation);
  report.dropped = 1;
  report.completed = 9;
  report.responses.resize(10);
  // The per-class ledgers must reconcile with the totals too.
  report.class_arrivals[0] = 10;
  report.class_admitted[0] = 9;
  report.class_dropped[0] = 1;
  report.class_completed[0] = 9;
  EXPECT_THROW(report.check_invariants(), ContractViolation);  // no latencies
  for (int i = 0; i < 9; ++i) {
    report.latency.add(1e-6 * (i + 1));
    report.class_latency[0].add(1e-6 * (i + 1));
  }
  EXPECT_NO_THROW(report.check_invariants());
  report.shed = 1;  // completed + shed + update_requests > admitted
  EXPECT_THROW(report.check_invariants(), ContractViolation);
}

TEST(Observability, ShardedInvariantCatchesBrokenPerShardSums) {
  serve::ServerReport report;
  report.arrivals = 4;
  report.admitted = 4;
  report.completed = 4;
  report.responses.resize(4);
  report.class_arrivals[0] = 4;
  report.class_admitted[0] = 4;
  report.class_completed[0] = 4;
  for (int i = 0; i < 4; ++i) {
    report.latency.add(1e-6 * (i + 1));
    report.class_latency[0].add(1e-6 * (i + 1));
  }
  report.shard_admitted = {2, 1};  // sums to 3, not 4
  report.shard_dropped = {0, 0};
  report.shard_batches = {0, 0};
  EXPECT_THROW(report.check_invariants(), ContractViolation);
  report.shard_admitted = {2, 2};
  report.batches = 1;  // per-shard batches sum to 0, not 1
  EXPECT_THROW(report.check_invariants(), ContractViolation);
  report.shard_batches = {1, 0};
  EXPECT_NO_THROW(report.check_invariants());
}

// Two same-seed observed runs must dump byte-identical Prometheus text
// and trace CSV/JSON — what the CI metrics-determinism gate enforces on
// the full binary, pinned here at library level.
TEST(Observability, SameSeedRunsDumpByteIdenticalObservations) {
  auto dump_once = [] {
    ShardedFixture f(4);
    serve::ServeOptions cfg;
    cfg.batch.max_batch = 128;
    cfg.batch.max_wait = 80e-6;
    cfg.batch.queue_capacity = 512;
    cfg.epoch.max_buffered = 250;
    cfg.faults = random_plan(4, 17);
    obs::MetricsRegistry metrics;
    obs::TraceRecorder trace;
    cfg.obs = {&metrics, &trace};
    shard::ShardedServer server(f.index, cfg);
    server.run(test_stream(f.keys, 21));
    std::ostringstream csv, json;
    trace.write_csv(csv);
    trace.write_json(json);
    return std::tuple{metrics.prometheus_text(), csv.str(), json.str()};
  };
  const auto a = dump_once();
  const auto b = dump_once();
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
  EXPECT_GT(std::get<1>(a).size(), 100u);
}

// Fault events must land in the trace as annotations interleaved on the
// virtual timeline, and a straddling range must leave scatter stamps on
// every involved shard plus one gather-merge stamp.
TEST(Observability, TraceCapturesFaultsAndFanOut) {
  ShardedFixture f(4);
  serve::ServeOptions cfg;
  cfg.batch.max_batch = 128;
  cfg.batch.max_wait = 80e-6;
  cfg.epoch.max_buffered = 250;
  cfg.faults = random_plan(4, 17);
  obs::MetricsRegistry metrics;
  obs::TraceRecorder trace;
  cfg.obs = {&metrics, &trace};
  shard::ShardedServer server(f.index, cfg);
  const auto report = server.run(test_stream(f.keys, 21));

  std::uint64_t annotations = 0, scatters = 0, merges = 0;
  for (const auto& e : trace.events()) {
    if (e.stage == obs::Stage::kAnnotation) ++annotations;
    if (e.stage == obs::Stage::kShardScatter) ++scatters;
    if (e.stage == obs::Stage::kGatherMerge) ++merges;
  }
  EXPECT_GT(annotations, 0u) << "random plan injected nothing traceable";
  ASSERT_GT(report.split_ranges, 0u) << "stream produced no straddling range";
  EXPECT_EQ(merges, report.split_ranges);
  EXPECT_GE(scatters, 2 * report.split_ranges);  // >= 2 shards per split
}

}  // namespace
}  // namespace harmonia
