#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/expect.hpp"

namespace harmonia {
namespace {

TEST(Summary, BasicMoments) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 15.0);
  EXPECT_NEAR(s.stddev(), 1.5811388, 1e-6);
}

TEST(Summary, SingleSampleStddevZero) {
  Summary s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(Summary, PercentileInterpolates) {
  Summary s;
  for (double x : {10.0, 20.0, 30.0, 40.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 25.0);
}

TEST(Summary, PercentileAfterMoreAdds) {
  Summary s;
  s.add(3.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 3.0);
  s.add(5.0);  // invalidates the sorted cache
  EXPECT_DOUBLE_EQ(s.percentile(100), 5.0);
}

TEST(Summary, EmptyThrows) {
  Summary s;
  EXPECT_THROW(s.mean(), ContractViolation);
  EXPECT_THROW(s.min(), ContractViolation);
  EXPECT_THROW(s.percentile(50), ContractViolation);
}

TEST(Summary, ConcurrentPercentileReadsAreRaceFree) {
  // Regression: percentile() used to lazily sort a mutable cache inside
  // the const method, so two report threads reading the same Summary
  // raced on the sort (caught by TSan in CI). It now sorts an owned
  // copy; concurrent reads must be clean and all agree.
  Summary s;
  for (int i = 0; i < 10000; ++i) s.add(static_cast<double>(i));
  const Summary& cs = s;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        if (cs.percentile(50) != 4999.5) mismatches.fetch_add(1);
        if (cs.percentile(100) != 9999.0) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(Summary, AddAllSpan) {
  Summary s;
  const double xs[] = {1.0, 2.0, 3.0};
  s.add_all(xs);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

}  // namespace
}  // namespace harmonia
