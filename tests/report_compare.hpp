// Exact comparison of two serving runs' reports: every response field and
// every ServerReport field, floating-point values included. Differential
// tests use it to show that two configurations serve the same stream
// identically on the virtual clock.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>

#include "common/stats.hpp"
#include "serve/report.hpp"

namespace harmonia::testing_support {

inline void expect_same_summary(const Summary& a, const Summary& b, const char* what) {
  ASSERT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.sum(), b.sum()) << what;
  if (a.empty()) return;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
  EXPECT_EQ(a.percentile(50), b.percentile(50)) << what;
  EXPECT_EQ(a.percentile(99), b.percentile(99)) << what;
}

inline void expect_same_report(const serve::ServerReport& a,
                               const serve::ServerReport& b) {
  ASSERT_EQ(a.responses.size(), b.responses.size());
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    const serve::Response& x = a.responses[i];
    const serve::Response& y = b.responses[i];
    SCOPED_TRACE(::testing::Message() << "response " << i << " id " << x.id);
    ASSERT_EQ(x.id, y.id);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.tenant, y.tenant);
    EXPECT_EQ(x.klass, y.klass);
    EXPECT_EQ(x.dropped, y.dropped);
    EXPECT_EQ(x.epoch, y.epoch);
    EXPECT_EQ(x.arrival, y.arrival);
    EXPECT_EQ(x.dispatch, y.dispatch);
    EXPECT_EQ(x.completion, y.completion);
    EXPECT_EQ(x.value, y.value);
    EXPECT_EQ(x.range_values, y.range_values);
  }
  expect_same_summary(a.latency, b.latency, "latency");
  expect_same_summary(a.queue_delay, b.queue_delay, "queue_delay");
  expect_same_summary(a.batch_size, b.batch_size, "batch_size");
  expect_same_summary(a.queue_depth, b.queue_depth, "queue_depth");
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.update_requests, b.update_requests);
  EXPECT_EQ(a.throttled, b.throttled);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.epochs, b.epochs);
  EXPECT_EQ(a.updates_applied, b.updates_applied);
  EXPECT_EQ(a.updates_failed, b.updates_failed);
  EXPECT_EQ(a.class_arrivals, b.class_arrivals);
  EXPECT_EQ(a.class_admitted, b.class_admitted);
  EXPECT_EQ(a.class_dropped, b.class_dropped);
  EXPECT_EQ(a.class_throttled, b.class_throttled);
  EXPECT_EQ(a.class_completed, b.class_completed);
  EXPECT_EQ(a.class_shed, b.class_shed);
  EXPECT_EQ(a.class_update_requests, b.class_update_requests);
  for (std::size_t c = 0; c < qos::kNumClasses; ++c)
    expect_same_summary(a.class_latency[c], b.class_latency[c], "class_latency");
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.busy_seconds, b.busy_seconds);
  EXPECT_EQ(a.epoch_build_seconds, b.epoch_build_seconds);
  EXPECT_EQ(a.epoch_upload_seconds, b.epoch_upload_seconds);
  EXPECT_EQ(a.epoch_swap_wait_seconds, b.epoch_swap_wait_seconds);
  EXPECT_EQ(a.epoch_stall_seconds, b.epoch_stall_seconds);
  EXPECT_EQ(a.patch_epochs, b.patch_epochs);
  EXPECT_EQ(a.compaction_epochs, b.compaction_epochs);
  EXPECT_EQ(a.epoch_patch_build_seconds, b.epoch_patch_build_seconds);
  EXPECT_EQ(a.epoch_patch_upload_seconds, b.epoch_patch_upload_seconds);
  EXPECT_EQ(a.epoch_compaction_build_seconds, b.epoch_compaction_build_seconds);
  EXPECT_EQ(a.epoch_compaction_upload_seconds, b.epoch_compaction_upload_seconds);
  EXPECT_EQ(a.log_batches, b.log_batches);
  EXPECT_EQ(a.snapshots_written, b.snapshots_written);
  EXPECT_EQ(a.barrier_wait_seconds, b.barrier_wait_seconds);
  EXPECT_EQ(a.shard_batches, b.shard_batches);
  EXPECT_EQ(a.shard_queries, b.shard_queries);
  EXPECT_EQ(a.shard_admitted, b.shard_admitted);
  EXPECT_EQ(a.shard_dropped, b.shard_dropped);
  EXPECT_EQ(a.split_ranges, b.split_ranges);
  EXPECT_EQ(a.split_scans, b.split_scans);
  EXPECT_EQ(a.replica_batches, b.replica_batches);
  EXPECT_EQ(a.plan_version, b.plan_version);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.migrated_keys, b.migrated_keys);
  EXPECT_EQ(a.migration_build_seconds, b.migration_build_seconds);
  EXPECT_EQ(a.migration_upload_seconds, b.migration_upload_seconds);
  EXPECT_TRUE(a.faults == b.faults)
      << a.faults.csv_row() << "\nvs\n" << b.faults.csv_row();
}

}  // namespace harmonia::testing_support
