#include "serve/report.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/expect.hpp"

namespace harmonia::serve {

namespace {
std::uint64_t sum(const std::vector<std::uint64_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
}
}  // namespace

void ServerReport::check_invariants() const {
  HARMONIA_CHECK_MSG(arrivals == admitted + dropped,
                     "serving accounting broken: arrivals=" << arrivals
                         << " != admitted=" << admitted
                         << " + dropped=" << dropped);
  HARMONIA_CHECK_MSG(
      admitted == completed + shed + update_requests,
      "serving accounting broken: admitted=" << admitted
          << " != completed=" << completed << " + shed=" << shed
          << " + update_requests=" << update_requests);
  HARMONIA_CHECK_MSG(responses.size() == arrivals,
                     "serving accounting broken: " << responses.size()
                         << " responses for " << arrivals << " arrivals");
  HARMONIA_CHECK_MSG(latency.count() == completed,
                     "serving accounting broken: " << latency.count()
                         << " latency samples for " << completed
                         << " completions");

  // Per-class splits must reconcile with the stream-level counters and
  // satisfy the same admission identities class-by-class.
  const auto csum = [](const std::array<std::uint64_t, qos::kNumClasses>& a) {
    return std::accumulate(a.begin(), a.end(), std::uint64_t{0});
  };
  HARMONIA_CHECK_MSG(csum(class_arrivals) == arrivals,
                     "class accounting broken: class arrivals sum to "
                         << csum(class_arrivals) << " but arrivals=" << arrivals);
  HARMONIA_CHECK_MSG(csum(class_admitted) == admitted,
                     "class accounting broken: class admissions sum to "
                         << csum(class_admitted) << " but admitted=" << admitted);
  HARMONIA_CHECK_MSG(csum(class_dropped) == dropped,
                     "class accounting broken: class drops sum to "
                         << csum(class_dropped) << " but dropped=" << dropped);
  HARMONIA_CHECK_MSG(csum(class_throttled) == throttled,
                     "class accounting broken: class throttles sum to "
                         << csum(class_throttled) << " but throttled="
                         << throttled);
  HARMONIA_CHECK_MSG(csum(class_completed) == completed,
                     "class accounting broken: class completions sum to "
                         << csum(class_completed) << " but completed="
                         << completed);
  HARMONIA_CHECK_MSG(csum(class_shed) == shed,
                     "class accounting broken: class sheds sum to "
                         << csum(class_shed) << " but shed=" << shed);
  HARMONIA_CHECK_MSG(csum(class_update_requests) == update_requests,
                     "class accounting broken: class update requests sum to "
                         << csum(class_update_requests) << " but update_requests="
                         << update_requests);
  for (std::size_t c = 0; c < qos::kNumClasses; ++c) {
    const char* name = qos::to_string(qos::priority_at(c));
    HARMONIA_CHECK_MSG(
        class_arrivals[c] == class_admitted[c] + class_dropped[c],
        "class accounting broken (" << name << "): arrivals="
            << class_arrivals[c] << " != admitted=" << class_admitted[c]
            << " + dropped=" << class_dropped[c]);
    HARMONIA_CHECK_MSG(
        class_admitted[c] ==
            class_completed[c] + class_shed[c] + class_update_requests[c],
        "class accounting broken (" << name << "): admitted="
            << class_admitted[c] << " != completed=" << class_completed[c]
            << " + shed=" << class_shed[c] << " + update_requests="
            << class_update_requests[c]);
    HARMONIA_CHECK_MSG(class_throttled[c] <= class_dropped[c],
                       "class accounting broken (" << name << "): throttled="
                           << class_throttled[c] << " > dropped="
                           << class_dropped[c]);
    HARMONIA_CHECK_MSG(class_latency[c].count() == class_completed[c],
                       "class accounting broken (" << name << "): "
                           << class_latency[c].count()
                           << " latency samples for " << class_completed[c]
                           << " completions");
  }

  // Patch/compaction split: every epoch books into exactly one side, and
  // the per-side build/upload sums reassemble the totals (a relative
  // epsilon absorbs the different fp accumulation order).
  HARMONIA_CHECK_MSG(patch_epochs + compaction_epochs == epochs,
                     "epoch accounting broken: patch_epochs=" << patch_epochs
                         << " + compaction_epochs=" << compaction_epochs
                         << " != epochs=" << epochs);
  const auto close = [](double split, double total) {
    const double scale = std::max({std::abs(split), std::abs(total), 1.0});
    return std::abs(split - total) <= 1e-9 * scale;
  };
  HARMONIA_CHECK_MSG(
      close(epoch_patch_build_seconds + epoch_compaction_build_seconds,
            epoch_build_seconds),
      "epoch accounting broken: patch+compaction build seconds "
          << epoch_patch_build_seconds + epoch_compaction_build_seconds
          << " != epoch_build_seconds=" << epoch_build_seconds);
  HARMONIA_CHECK_MSG(
      close(epoch_patch_upload_seconds + epoch_compaction_upload_seconds,
            epoch_upload_seconds),
      "epoch accounting broken: patch+compaction upload seconds "
          << epoch_patch_upload_seconds + epoch_compaction_upload_seconds
          << " != epoch_upload_seconds=" << epoch_upload_seconds);

  if (shard_batches.empty()) return;
  HARMONIA_CHECK_MSG(
      sum(shard_admitted) + update_requests == admitted,
      "sharded accounting broken: per-shard admissions sum to "
          << sum(shard_admitted) << " + update_requests=" << update_requests
          << " but admitted=" << admitted);
  HARMONIA_CHECK_MSG(sum(shard_dropped) == dropped,
                     "sharded accounting broken: per-shard drops sum to "
                         << sum(shard_dropped) << " but dropped=" << dropped);
  HARMONIA_CHECK_MSG(sum(shard_batches) == batches,
                     "sharded accounting broken: per-shard batches sum to "
                         << sum(shard_batches) << " but batches=" << batches);
  if (!replica_batches.empty()) {
    HARMONIA_CHECK_MSG(
        sum(replica_batches) == batches,
        "replica accounting broken: per-replica batches sum to "
            << sum(replica_batches) << " but batches=" << batches);
    HARMONIA_CHECK_MSG(replica_batches.size() % shard_batches.size() == 0,
                       "replica accounting broken: " << replica_batches.size()
                           << " replica slots over " << shard_batches.size()
                           << " shards is not a whole group size");
    const std::size_t k = replica_batches.size() / shard_batches.size();
    for (std::size_t s = 0; s < shard_batches.size(); ++s) {
      std::uint64_t group = 0;
      for (std::size_t r = 0; r < k; ++r) group += replica_batches[s * k + r];
      HARMONIA_CHECK_MSG(group == shard_batches[s],
                         "replica accounting broken: shard " << s
                             << "'s group serves " << group
                             << " batches but shard_batches=" << shard_batches[s]);
    }
  }
  HARMONIA_CHECK_MSG(plan_version == 1 + migrations,
                     "reshard accounting broken: plan_version=" << plan_version
                         << " != 1 + migrations=" << migrations);
}

}  // namespace harmonia::serve
