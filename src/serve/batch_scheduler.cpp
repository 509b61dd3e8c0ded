#include "serve/batch_scheduler.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "common/expect.hpp"

namespace harmonia::serve {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Retry backoff after a failed dispatch: 50 us, doubling per retry,
/// capped at 1 ms (a modeled assumption, DESIGN.md §2).
constexpr double kRetryBackoff = 50e-6;
constexpr double kRetryBackoffMultiplier = 2.0;
constexpr double kMaxRetryBackoff = 1e-3;

std::string shard_label(unsigned shard) {
  return "shard=\"" + std::to_string(shard) + "\"";
}

const char* kKindNames[] = {"point", "range", "scan"};
}  // namespace

std::size_t BatchScheduler::kind_index(RequestKind kind) {
  switch (kind) {
    case RequestKind::kPoint: return 0;
    case RequestKind::kRange: return 1;
    case RequestKind::kScan: return 2;
    case RequestKind::kUpdate: break;
  }
  HARMONIA_CHECK_MSG(false, "updates do not queue in the batch scheduler");
  return 0;
}

BatchScheduler::BatchScheduler(HarmoniaIndex& index, const TransferModel& link,
                               const BatchConfig& config,
                               const qos::QosConfig& qos)
    : index_(index),
      link_(link),
      config_(config),
      qos_(qos),
      wfq_(qos.weights()) {
  HARMONIA_CHECK(config_.max_batch > 0);
  HARMONIA_CHECK(config_.max_wait >= 0.0);
  HARMONIA_CHECK(config_.queue_capacity >= config_.max_batch);
  qos_.validate();
  lanes_.reserve(kKinds * qos::kNumClasses);
  for (std::size_t i = 0; i < kKinds * qos::kNumClasses; ++i)
    lanes_.emplace_back(config_.queue_capacity);
}

std::size_t BatchScheduler::depth() const {
  std::size_t n = 0;
  for (const RequestQueue& q : lanes_) n += q.size();
  return n;
}

std::size_t BatchScheduler::kind_depth(std::size_t kind) const {
  std::size_t n = 0;
  for (std::size_t c = 0; c < qos::kNumClasses; ++c) n += lane(kind, c).size();
  return n;
}

std::size_t BatchScheduler::free_slots(RequestKind kind) const {
  const std::size_t used = kind_depth(kind_index(kind));
  return config_.queue_capacity - used;
}

std::size_t BatchScheduler::admissible_slots(RequestKind kind,
                                             qos::Priority klass) const {
  std::size_t slots = free_slots(kind);
  if (!qos_.enabled) return slots;
  const std::size_t k = kind_index(kind);
  for (std::size_t c = qos::index(klass) + 1; c < qos::kNumClasses; ++c)
    slots += lane(k, c).size();
  return slots;
}

BatchScheduler::Admit BatchScheduler::admit(const Request& r) {
  HARMONIA_CHECK(r.kind != RequestKind::kUpdate);
  Admit result;
  Request q = r;
  if (q.kind == RequestKind::kScan) q.scan_n = config_.clamp_scan_n(q.scan_n);
  const std::size_t k = kind_index(q.kind);
  const LaneMetrics& m = kind_metrics_[k];

  if (kind_depth(k) >= config_.queue_capacity) {
    // Kind budget full. QoS overload policy: shed the newest queued
    // request of the lowest class strictly below the arrival's — it has
    // invested the least waiting and the class ranking says it loses
    // first. Without QoS (or no lower-class request) this is the legacy
    // backpressure reject.
    std::optional<std::size_t> victim_class;
    if (qos_.enabled) {
      for (std::size_t c = qos::kNumClasses; c-- > qos::index(q.klass) + 1;) {
        if (!lane(k, c).empty()) {
          victim_class = c;
          break;
        }
      }
    }
    if (!victim_class.has_value()) {
      if (obs_.active() && m.rejected != nullptr) m.rejected->inc();
      return result;
    }
    result.evicted = lane(k, *victim_class).pop_back();
    if (obs_.active() && evicted_metrics_[*victim_class] != nullptr)
      evicted_metrics_[*victim_class]->inc();
  }

  const bool ok = lane(k, qos::index(q.klass)).try_push(q);
  HARMONIA_CHECK(ok);  // budget was checked (or a victim made room)
  result.admitted = true;
  if (obs_.active()) {
    if (m.admitted != nullptr) m.admitted->inc();
    if (obs_.trace != nullptr) {
      std::string note;
      if (qos_.enabled)
        note = "tenant=" + std::to_string(q.tenant) + " class=" +
               qos::to_string(q.klass);
      obs_.trace->stamp(q.id, obs::Stage::kQueueEnter, q.arrival, shard_, note);
    }
  }
  return result;
}

void BatchScheduler::set_observer(const obs::Observer& obs, unsigned shard) {
  obs_ = obs;
  shard_ = shard;
  if (obs.metrics == nullptr) return;
  obs::MetricsRegistry& m = *obs.metrics;
  const std::string sl = shard_label(shard);
  for (std::size_t k = 0; k < kKinds; ++k) {
    LaneMetrics& lane_m = kind_metrics_[k];
    const std::string labels =
        std::string{"{kind=\""} + kKindNames[k] + "\"," + sl + "}";
    lane_m.admitted = &m.counter("serve_admitted_total" + labels);
    lane_m.rejected = &m.counter("serve_rejected_total" + labels);
    lane_m.batches = &m.counter("serve_batches_total" + labels);
    lane_m.queries = &m.counter("serve_batched_queries_total" + labels);
  }
  for (std::size_t c = 0; c < qos::kNumClasses; ++c) {
    evicted_metrics_[c] = &m.counter(
        std::string{"serve_evicted_total{class=\""} +
        qos::to_string(qos::priority_at(c)) + "\"," + sl + "}");
  }
  batch_size_hist_ =
      &m.histogram("serve_batch_size{" + sl + "}",
                   obs::LatencyHistogram::exponential_edges(1.0, 65536.0, 16));
  service_hist_ =
      &m.histogram("serve_batch_service_seconds{" + sl + "}",
                   obs::LatencyHistogram::exponential_edges(1e-7, 1.0, 28));
  queue_wait_hist_ =
      &m.histogram("serve_queue_wait_seconds{" + sl + "}",
                   obs::LatencyHistogram::exponential_edges(1e-7, 1.0, 28));
}

void BatchScheduler::observe_dispatch(const Dispatch& d,
                                      std::span<const Request> members) {
  if (obs_.metrics != nullptr) {
    const LaneMetrics& m = kind_metrics_[kind_index(d.kind)];
    m.batches->inc();
    m.queries->inc(d.batch_size);
    batch_size_hist_->observe(static_cast<double>(d.batch_size));
    service_hist_->observe(d.service_seconds());
    for (const Request& r : members)
      queue_wait_hist_->observe(d.start - r.arrival);
  }
  if (obs_.trace != nullptr) {
    std::string note =
        d.attempts > 1 ? "attempts=" + std::to_string(d.attempts) : std::string{};
    if (qos_.enabled) {
      if (!note.empty()) note += ' ';
      note += std::string{"class="} + qos::to_string(d.klass);
    }
    for (const Request& r : members) {
      obs_.trace->stamp(r.id, obs::Stage::kBatchForm, d.close, shard_);
      obs_.trace->stamp(r.id, obs::Stage::kDispatch, d.start, shard_, note);
    }
  }
}

double BatchScheduler::lane_deadline(std::size_t kind, std::size_t klass) const {
  const double oldest = lane(kind, klass).oldest_arrival();
  if (oldest == kInf) return kInf;
  return oldest + config_.max_wait * qos_.classes[klass].deadline_factor;
}

double BatchScheduler::next_deadline() const {
  double d = kInf;
  for (std::size_t c = 0; c < qos::kNumClasses; ++c)
    for (std::size_t k = 0; k < kKinds; ++k)
      d = std::min(d, lane_deadline(k, c));
  return d;
}

bool BatchScheduler::size_ready() const {
  for (const RequestQueue& q : lanes_)
    if (q.size() >= config_.max_batch) return true;
  return false;
}

BatchScheduler::Dispatch BatchScheduler::dispatch_ready(double close_time,
                                                        double device_free,
                                                        unsigned epoch) {
  HARMONIA_CHECK(!empty());
  // A size-full lane is overdue regardless of deadlines; among several,
  // weighted fairness picks the class with the smallest virtual time
  // (ties keep iteration order: higher class first, then point < range <
  // scan — which reduces to the legacy point-first rule single-class).
  std::size_t best_k = 0, best_c = 0;
  bool found = false;
  double best_v = kInf;
  for (std::size_t c = 0; c < qos::kNumClasses; ++c) {
    for (std::size_t k = 0; k < kKinds; ++k) {
      if (lane(k, c).size() < config_.max_batch) continue;
      const double v = wfq_.vtime(qos::priority_at(c));
      if (!found || v < best_v) {
        found = true;
        best_v = v;
        best_k = k;
        best_c = c;
      }
    }
  }
  if (!found) {
    // Deadline-driven: earliest class-stretched deadline; ties on the
    // deadline fall to the smaller virtual time, then iteration order.
    double best_d = kInf;
    best_v = kInf;
    for (std::size_t c = 0; c < qos::kNumClasses; ++c) {
      for (std::size_t k = 0; k < kKinds; ++k) {
        if (lane(k, c).empty()) continue;
        const double d = lane_deadline(k, c);
        const double v = wfq_.vtime(qos::priority_at(c));
        if (!found || d < best_d || (d == best_d && v < best_v)) {
          found = true;
          best_d = d;
          best_v = v;
          best_k = k;
          best_c = c;
        }
      }
    }
  }
  HARMONIA_CHECK(found);
  return dispatch_lane(best_k, best_c, close_time, device_free, epoch);
}

std::vector<Request> BatchScheduler::evict_all() {
  std::vector<Request> out;
  out.reserve(depth());
  for (RequestQueue& q : lanes_)
    while (!q.empty()) out.push_back(q.pop());
  std::stable_sort(out.begin(), out.end(), [](const Request& a, const Request& b) {
    return a.arrival != b.arrival ? a.arrival < b.arrival : a.id < b.id;
  });
  return out;
}

// Applies the fault model to one dispatch: any live slowdown window scales
// the transfer share of the service time, and each armed transient failure
// costs the failed attempt plus an exponential backoff before the retry.
// Exhausting the retry budget sheds the batch (its requests answer
// dropped) so a persistently failing device cannot hold the lane forever.
double BatchScheduler::faulted_finish(double start, double base_service,
                                      double transfer_seconds, Dispatch& d) {
  if (injector_ == nullptr || !injector_->active()) return start + base_service;
  const fault::RetryPolicy& retry = injector_->mitigation().retry;
  fault::FaultReport& rep = injector_->report();
  double t = start;
  double backoff = kRetryBackoff;
  for (;;) {
    const double factor = injector_->transfer_factor(shard_, t);
    const double service =
        base_service + (factor - 1.0) * transfer_seconds;
    if (!injector_->take_dispatch_failure(shard_, t)) return t + service;
    t += service;  // the failed attempt still occupied device and link
    if (d.attempts >= retry.max_attempts) {
      d.shed = true;
      ++rep.retry_shed_batches;
      rep.retry_shed_requests += d.batch_size;
      rep.retry_shed_by_class[qos::index(d.klass)] += d.batch_size;
      return t;
    }
    const double wait = std::min(backoff, kMaxRetryBackoff);
    t += wait;
    backoff *= kRetryBackoffMultiplier;
    rep.backoff_seconds += wait;
    ++rep.retries;
    ++d.attempts;
  }
}

BatchScheduler::Dispatch BatchScheduler::dispatch_lane(std::size_t kind,
                                                       std::size_t klass,
                                                       double close_time,
                                                       double device_free,
                                                       unsigned epoch) {
  RequestQueue& q = lane(kind, klass);
  const std::size_t n = std::min(q.size(), config_.max_batch);
  HARMONIA_CHECK(n > 0);
  std::vector<Request> members;
  members.reserve(n);
  for (std::size_t i = 0; i < n; ++i) members.push_back(q.pop());

  Dispatch d;
  d.kind = members.front().kind;
  d.klass = qos::priority_at(klass);
  d.batch_size = n;
  d.close = close_time;
  d.start = std::max(close_time, device_free);

  // Per-kind device work + transfer model. Bounds up, results down,
  // kernel in between (ranges/scans skip chunking: their online batches
  // are small next to the point-lookup stream).
  double service = 0.0;
  double transfer = 0.0;
  std::vector<Value> point_values;
  std::vector<std::vector<Value>> list_values;
  if (d.kind == RequestKind::kPoint) {
    std::vector<Key> keys;
    keys.reserve(n);
    for (const Request& r : members) keys.push_back(r.key);
    auto piped = pipelined_search(index_, keys, link_, config_.pipeline);
    service = piped.total_seconds;
    transfer = piped.upload_seconds + piped.download_seconds;
    point_values = std::move(piped.values);
  } else if (d.kind == RequestKind::kRange) {
    std::vector<Key> los, his;
    los.reserve(n);
    his.reserve(n);
    for (const Request& r : members) {
      los.push_back(r.key);
      his.push_back(r.hi);
    }
    auto r = index_.range_device(los, his, config_.max_range_results);
    transfer = link_.seconds(2 * n * sizeof(Key)) +
               link_.seconds(r.total_results * sizeof(Value));
    service = transfer + r.kernel_seconds;
    list_values = std::move(r.values);
  } else {
    std::vector<Key> los;
    std::vector<std::uint32_t> ns;
    los.reserve(n);
    ns.reserve(n);
    for (const Request& r : members) {
      los.push_back(r.key);
      ns.push_back(r.scan_n);
    }
    auto r = index_.scan_device(los, ns);
    transfer = link_.seconds(n * (sizeof(Key) + sizeof(std::uint32_t))) +
               link_.seconds(r.total_results * sizeof(Value));
    service = transfer + r.kernel_seconds;
    list_values = std::move(r.values);
  }

  d.finish = faulted_finish(d.start, service, transfer, d);
  d.responses.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Response resp = response_to(members[i]);
    resp.epoch = epoch;
    resp.dispatch = d.start;
    resp.completion = d.finish;
    resp.dropped = d.shed;
    if (!d.shed) {
      if (d.kind == RequestKind::kPoint) resp.value = point_values[i];
      else resp.range_values = std::move(list_values[i]);
    }
    d.responses.push_back(std::move(resp));
  }
  wfq_.charge(d.klass, static_cast<double>(n));
  if (obs_.active()) observe_dispatch(d, members);
  return d;
}

}  // namespace harmonia::serve
