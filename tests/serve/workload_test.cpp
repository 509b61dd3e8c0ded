// Tests of the serving workload generators: Poisson statistics, kind
// mix, determinism, and closed-loop bookkeeping.
#include <gtest/gtest.h>

#include <cmath>

#include "queries/workload.hpp"
#include "serve/workload.hpp"

namespace harmonia::serve {
namespace {

TEST(OpenLoopWorkload, PoissonInterarrivalStatistics) {
  const auto keys = queries::make_tree_keys(4096, 1);
  OpenLoopSpec spec;
  spec.arrivals_per_second = 1e6;
  spec.count = 50000;
  spec.seed = 3;
  const auto stream = make_open_loop(keys, spec);
  ASSERT_EQ(stream.size(), spec.count);

  double sum = 0.0, prev = 0.0;
  for (const auto& r : stream) {
    ASSERT_GE(r.arrival, prev);  // sorted
    sum += r.arrival - prev;
    prev = r.arrival;
  }
  const double mean = sum / static_cast<double>(spec.count);
  EXPECT_NEAR(mean, 1e-6, 0.03e-6);  // 1/rate within 3%

  // Exponential interarrivals: P(X > mean) = 1/e ~ 0.368.
  std::uint64_t over_mean = 0;
  prev = 0.0;
  for (const auto& r : stream) {
    over_mean += (r.arrival - prev > mean);
    prev = r.arrival;
  }
  const double frac = static_cast<double>(over_mean) / static_cast<double>(spec.count);
  EXPECT_NEAR(frac, std::exp(-1.0), 0.02);
}

TEST(OpenLoopWorkload, KindMixAndTargets) {
  const auto keys = queries::make_tree_keys(4096, 1);
  OpenLoopSpec spec;
  spec.arrivals_per_second = 1e6;
  spec.count = 20000;
  spec.update_fraction = 0.2;
  spec.range_fraction = 0.1;
  spec.range_span = 8;
  spec.seed = 4;
  const auto stream = make_open_loop(keys, spec);

  std::uint64_t updates = 0, ranges = 0, points = 0;
  for (const auto& r : stream) {
    switch (r.kind) {
      case RequestKind::kUpdate: ++updates; break;
      case RequestKind::kRange:
        ++ranges;
        EXPECT_LE(r.key, r.hi);
        break;
      case RequestKind::kPoint:
        ++points;
        // Point targets hit existing keys.
        EXPECT_TRUE(std::binary_search(keys.begin(), keys.end(), r.key));
        break;
      case RequestKind::kScan:
        ADD_FAILURE() << "scan " << r.id << " in a stream without scan_fraction";
        break;
    }
    EXPECT_EQ(r.id, static_cast<std::uint64_t>(&r - stream.data()));
  }
  EXPECT_NEAR(static_cast<double>(updates) / 20000.0, 0.2, 0.02);
  EXPECT_NEAR(static_cast<double>(ranges) / 20000.0, 0.1, 0.02);
  EXPECT_EQ(updates + ranges + points, 20000u);
}

TEST(OpenLoopWorkload, DeterministicInSpec) {
  const auto keys = queries::make_tree_keys(1024, 2);
  OpenLoopSpec spec;
  spec.arrivals_per_second = 2e6;
  spec.count = 5000;
  spec.update_fraction = 0.3;
  spec.seed = 9;
  const auto a = make_open_loop(keys, spec);
  const auto b = make_open_loop(keys, spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_DOUBLE_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(static_cast<int>(a[i].kind), static_cast<int>(b[i].kind));
  }
}

TEST(ClosedLoopSource, RespectsClientPopulationAndTotal) {
  const auto keys = queries::make_tree_keys(1024, 2);
  ClosedLoopSpec spec;
  spec.clients = 4;
  spec.think_seconds = 10e-6;
  spec.total_requests = 10;
  spec.seed = 5;
  ClosedLoopSource source(keys, spec);

  // Initially one scheduled request per client.
  std::uint64_t outstanding = 0;
  std::vector<Request> in_flight;
  while (source.peek() && outstanding < 4) {
    in_flight.push_back(source.pop());
    ++outstanding;
  }
  EXPECT_EQ(outstanding, 4u);
  EXPECT_EQ(source.peek(), nullptr);  // nothing until a completion

  // Completing one request schedules exactly one follow-up, after think.
  Response resp;
  resp.id = in_flight[0].id;
  resp.completion = 1e-3;
  source.on_complete(resp);
  ASSERT_NE(source.peek(), nullptr);
  EXPECT_DOUBLE_EQ(source.peek()->arrival, 1e-3 + 10e-6);

  // Issue count caps at total_requests across all feedback.
  for (std::uint64_t i = 0; source.peek(); ++i) {
    const Request r = source.pop();
    Response done;
    done.id = r.id;
    done.completion = 2e-3 + static_cast<double>(i) * 1e-4;
    source.on_complete(done);
  }
  EXPECT_EQ(source.issued(), 10u);
}

}  // namespace
}  // namespace harmonia::serve
