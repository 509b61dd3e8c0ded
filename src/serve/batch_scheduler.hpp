// Deadline-driven dynamic batching: the piece inference servers add
// between a request stream and a batch-oriented accelerator.
//
// Queries wait in kind x class lanes: one lane per request kind (point /
// range / scan) and priority class, with one bounded admission budget per
// kind shared across its classes. A lane's batch closes on whichever
// fires first:
//   size trigger     : the lane holds max_batch requests;
//   deadline trigger : the lane's oldest request has waited
//                      max_wait * the class's deadline factor.
// Among lanes due at the same instant the scheduler picks weighted-fair:
// the eligible lane whose class has the smallest virtual time
// (service/weight, qos/wfq.hpp), so under saturation dispatch slots
// divide by class weight. When a kind's budget is full, an arriving
// request may evict the newest queued request of a strictly lower class
// (lowest class first) — the evicted request is answered dropped and
// accounted as shed. With QoS disabled (the default config) single-class
// streams behave bit-identically to the pre-QoS two-lane scheduler.
//
// A closed batch is dispatched through the PCIe pipeline scheduler
// (`pipelined_search` / the device range kernel), starting when both the
// batch is closed and the device is free; every member request completes
// when the batch's results finish downloading.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/expect.hpp"
#include "fault/injector.hpp"
#include "harmonia/index.hpp"
#include "harmonia/pipeline.hpp"
#include "obs/observer.hpp"
#include "qos/admission.hpp"
#include "qos/wfq.hpp"
#include "serve/request_queue.hpp"

namespace harmonia::serve {

struct BatchConfig {
  /// Size trigger: close a lane's batch at this many requests.
  std::size_t max_batch = 2048;
  /// Deadline trigger: close when the oldest request has waited this long
  /// (virtual seconds; stretched per class by qos deadline factors).
  double max_wait = 200e-6;
  /// Bounded admission per kind (shared across that kind's class lanes);
  /// requests beyond it are rejected (backpressure) or — with QoS on —
  /// evict a lower-class request, so waiting never grows unboundedly
  /// under overload.
  std::size_t queue_capacity = 1 << 14;
  /// Per-query result cap for the device range kernel (scans clamp their
  /// scan_n to this too).
  unsigned max_range_results = 64;
  /// Chunking + query options for dispatch. The group size defaults to
  /// the fanout-based one, not the NTG model: re-profiling every small
  /// online batch would dominate its cost; servers pick a group size once
  /// (or pin one here).
  PipelineOptions pipeline{.chunk_size = 1 << 16,
                           .overlap = true,
                           .query_options = {.group_size = 0}};

  /// A scan's result count as served: n clamped to [1, max_range_results]
  /// (a scan that asks nothing asks the next key). The scheduler and the
  /// sharded router both clamp with it, so fan-out span, merge truncation
  /// and the device agree on one n.
  std::uint32_t clamp_scan_n(std::uint32_t n) const {
    return std::min<std::uint32_t>(std::max<std::uint32_t>(n, 1), max_range_results);
  }
};

class BatchScheduler {
 public:
  BatchScheduler(HarmoniaIndex& index, const TransferModel& link,
                 const BatchConfig& config,
                 const qos::QosConfig& qos = qos::QosConfig{});

  /// Outcome of one admission. Converts to bool (admitted?) so legacy
  /// call sites keep reading naturally; `evicted` carries the
  /// lower-class request shed to make room (the caller answers it
  /// dropped and books it as shed — it *was* admitted).
  struct Admit {
    bool admitted = false;
    std::optional<Request> evicted;
    operator bool() const { return admitted; }  // NOLINT(google-explicit-*)
  };

  /// Admits a point/range/scan request into its kind x class lane.
  /// Not admitted = backpressure (no eviction candidate was available).
  Admit admit(const Request& r);

  std::size_t depth() const;
  bool empty() const { return depth() == 0; }

  /// Free admission slots in a kind's budget. The sharded fan-out path
  /// probes every involved shard before splitting a straddling range or
  /// scan, so the split is admitted all-or-nothing.
  std::size_t free_slots(RequestKind kind) const;
  /// Slots an arrival of (kind, klass) could claim: free budget plus
  /// queued strictly-lower-class requests it may evict (QoS on).
  std::size_t admissible_slots(RequestKind kind, qos::Priority klass) const;

  /// Earliest deadline over all lanes; +inf when idle.
  double next_deadline() const;
  /// True when some lane reached max_batch and must close now.
  bool size_ready() const;

  struct Dispatch {
    std::vector<Response> responses;
    RequestKind kind = RequestKind::kPoint;
    /// Batches are single-class: the lane's priority class.
    qos::Priority klass = qos::Priority::kGold;
    std::size_t batch_size = 0;
    /// Batch close time (trigger), device start, and download-done time.
    double close = 0.0;
    double start = 0.0;
    double finish = 0.0;
    /// Fault path: dispatch tries consumed (1 = clean first try) and
    /// whether the retry budget ran out (responses answer dropped).
    unsigned attempts = 1;
    bool shed = false;
    double service_seconds() const { return finish - start; }
  };

  /// Closes and dispatches the most urgent lane: among size-full lanes
  /// the one whose class has the smallest weighted-fair virtual time,
  /// otherwise the lane with the earliest (class-stretched) deadline.
  /// Dispatch starts at max(close_time, device_free). Requires !empty().
  Dispatch dispatch_ready(double close_time, double device_free, unsigned epoch);

  /// Arms the fault path: dispatches on this scheduler consult `injector`
  /// as shard `shard` for slowdown windows and transient failures. A null
  /// or inactive injector keeps dispatch arithmetic bit-identical to the
  /// fault-free build.
  void set_fault_context(fault::FaultInjector* injector, unsigned shard) {
    injector_ = injector;
    shard_ = shard;
  }

  /// Drains every lane (fencing a lost shard re-routes its queued work).
  /// Returned in arrival order; admission counters are unchanged.
  std::vector<Request> evict_all();

  /// Runtime batch knobs (serve/tunables.hpp): the backend installs them
  /// between dispatches, so no formed batch changes shape mid-flight.
  /// Queued requests simply see the new triggers; the lanes' admission
  /// capacity is construction-time and never moves (max_batch must stay
  /// within it — the Tunables validation enforces that upstream).
  void set_batch_knobs(std::size_t max_batch, double max_wait) {
    HARMONIA_CHECK(max_batch > 0 && max_batch <= config_.queue_capacity);
    HARMONIA_CHECK(max_wait > 0.0);
    config_.max_batch = max_batch;
    config_.max_wait = max_wait;
  }
  /// Runtime image/PSA knobs for dispatched batches. Callers install
  /// these only at an epoch-swap boundary (serve/tunables.hpp) — the
  /// scheduler itself just forwards them to every later dispatch.
  void set_query_knobs(unsigned group_size, unsigned sort_bits) {
    config_.pipeline.query_options.group_size = group_size;
    config_.pipeline.query_options.psa_override_bits = sort_bits;
  }
  unsigned group_size() const {
    return config_.pipeline.query_options.group_size;
  }
  unsigned sort_bits() const {
    return config_.pipeline.query_options.psa_override_bits;
  }

  /// Attaches metrics + lifecycle tracing as shard `shard` (0 for a
  /// single-device server). Counter/histogram handles resolve once here
  /// (the registry's cold path); admit/dispatch then increment through
  /// cached pointers — lock-free on the hot path. Admitted requests are
  /// stamped at queue-enter, batch-form, and dispatch; the server stamps
  /// reply when it delivers the response.
  void set_observer(const obs::Observer& obs, unsigned shard);

 private:
  /// Lane kinds that queue here (updates buffer in the epoch updater).
  static constexpr std::size_t kKinds = 3;  // point, range, scan
  static std::size_t kind_index(RequestKind kind);
  std::size_t lane_at(std::size_t kind, std::size_t klass) const {
    return kind * qos::kNumClasses + klass;
  }
  RequestQueue& lane(std::size_t kind, std::size_t klass) {
    return lanes_[lane_at(kind, klass)];
  }
  const RequestQueue& lane(std::size_t kind, std::size_t klass) const {
    return lanes_[lane_at(kind, klass)];
  }
  /// Queued requests across a kind's class lanes (its budget use).
  std::size_t kind_depth(std::size_t kind) const;
  /// This lane's deadline: oldest arrival + class-stretched max_wait.
  double lane_deadline(std::size_t kind, std::size_t klass) const;

  Dispatch dispatch_lane(std::size_t kind, std::size_t klass, double close_time,
                         double device_free, unsigned epoch);
  double faulted_finish(double start, double base_service,
                        double transfer_seconds, Dispatch& d);
  /// Metrics + trace stamps for one dispatched batch.
  void observe_dispatch(const Dispatch& d, std::span<const Request> members);

  /// Per-kind cached metric handles (null when unobserved).
  struct LaneMetrics {
    obs::Counter* admitted = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* queries = nullptr;
  };

  HarmoniaIndex& index_;
  TransferModel link_;
  BatchConfig config_;
  qos::QosConfig qos_;
  qos::WeightedFair wfq_;
  /// kKinds x kNumClasses bounded lanes, kind-major (lane_at).
  std::vector<RequestQueue> lanes_;
  fault::FaultInjector* injector_ = nullptr;
  unsigned shard_ = 0;
  obs::Observer obs_;
  std::array<LaneMetrics, kKinds> kind_metrics_{};
  std::array<obs::Counter*, qos::kNumClasses> evicted_metrics_{};
  obs::LatencyHistogram* batch_size_hist_ = nullptr;
  obs::LatencyHistogram* service_hist_ = nullptr;
  obs::LatencyHistogram* queue_wait_hist_ = nullptr;
};

}  // namespace harmonia::serve
