// Unit tests of the virtual-clock token bucket: continuous refill up to
// burst, all-or-nothing takes, and pure-function determinism (the
// property the metrics-determinism CI gate leans on).
#include <gtest/gtest.h>

#include "qos/token_bucket.hpp"

namespace harmonia::qos {
namespace {

TEST(TokenBucket, StartsFullAndDrainsByWholeTakes) {
  TokenBucket b(/*rate=*/100.0, /*burst=*/4.0);
  EXPECT_DOUBLE_EQ(b.tokens_at(0.0), 4.0);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(b.try_take(0.0));
  EXPECT_FALSE(b.try_take(0.0));  // empty: the 5th take at t=0 fails
  // A failed take consumed nothing.
  EXPECT_NEAR(b.tokens_at(0.0), 0.0, 1e-9);
}

TEST(TokenBucket, RefillsContinuouslyAtRate) {
  TokenBucket b(100.0, 4.0);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(b.try_take(0.0));
  // 100 tokens/s: half a token at 5 ms — still short of one.
  EXPECT_FALSE(b.try_take(0.005));
  // One full token at 10 ms (epsilon-tolerant compare inside).
  EXPECT_TRUE(b.try_take(0.010));
  EXPECT_FALSE(b.try_take(0.010));
}

TEST(TokenBucket, RefillCapsAtBurst) {
  TokenBucket b(1000.0, 2.0);
  EXPECT_TRUE(b.try_take(0.0, 2.0));
  // An hour of refill still holds only `burst` tokens.
  EXPECT_DOUBLE_EQ(b.tokens_at(3600.0), 2.0);
  EXPECT_TRUE(b.try_take(3600.0, 2.0));
  EXPECT_FALSE(b.try_take(3600.0, 1.0));
}

TEST(TokenBucket, OversizedTakeFailsWithoutConsuming) {
  TokenBucket b(10.0, 3.0);
  EXPECT_FALSE(b.try_take(0.0, 5.0));  // above burst: can never succeed
  EXPECT_TRUE(b.try_take(0.0, 3.0));   // the full burst is still there
}

TEST(TokenBucket, StartAnchorShiftsTheClock) {
  // A bucket created at t=5 is full at t=5 — creation lazily at a
  // tenant's first arrival must not grant pre-arrival refill.
  TokenBucket b(1.0, 1.0, /*start=*/5.0);
  EXPECT_TRUE(b.try_take(5.0));
  EXPECT_FALSE(b.try_take(5.5));
  EXPECT_TRUE(b.try_take(6.0));
}

TEST(TokenBucket, PreviewAgreesWithTakeAtTheBoundary) {
  // Regression: try_take accepted with an epsilon that the balance
  // preview lacked, so an admission preview at the exact refill boundary
  // could say "no" while the take a call later said "yes". can_take and
  // try_take now share one kEpsilon; sweep instants straddling the
  // boundary (including ones where refill rounding leaves the balance a
  // few ulps shy of a whole token) and require exact agreement.
  const double rate = 3.0, burst = 2.0;
  for (const double dt :
       {0.1, 1.0 / 3.0, 0.333333333333333, 0.3333333333333335, 0.5, 2.0 / 3.0,
        0.9999999999999999 / 3.0, 1.0000000000000002 / 3.0}) {
    TokenBucket b(rate, burst);
    ASSERT_TRUE(b.try_take(0.0, burst));  // drain at t=0
    const bool preview = b.can_take(dt, 1.0);
    const bool taken = b.try_take(dt, 1.0);
    EXPECT_EQ(preview, taken) << "dt " << dt;
    // And the preview after the take reflects the consumed balance
    // (skip instants that refilled two whole tokens).
    if (taken && dt < 0.6) {
      EXPECT_FALSE(b.can_take(dt, 1.0)) << "dt " << dt;
    }
  }
  // Exactly at the boundary the epsilon admits the take both ways.
  TokenBucket b(rate, burst);
  ASSERT_TRUE(b.try_take(0.0, burst));
  EXPECT_TRUE(b.can_take(1.0 / 3.0, 1.0));
  EXPECT_TRUE(b.try_take(1.0 / 3.0, 1.0));
}

TEST(TokenBucket, DeterministicReplay) {
  const double times[] = {0.0, 0.001, 0.0015, 0.002, 0.01, 0.0100001, 0.5};
  auto run = [&] {
    TokenBucket b(500.0, 3.0);
    std::vector<bool> out;
    for (double t : times) out.push_back(b.try_take(t));
    return out;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace harmonia::qos
