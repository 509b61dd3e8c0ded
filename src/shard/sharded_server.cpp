#include "shard/sharded_server.hpp"

#include <algorithm>
#include <string>

#include "common/expect.hpp"
#include "fault/checksum.hpp"
#include "persist/update_log.hpp"

namespace harmonia::shard {

namespace {
/// Modeled CPU-oracle costs of degraded serving on a fenced shard: per
/// point lookup, per range or scan piece, and per range result (modeled
/// assumptions, DESIGN.md §2).
constexpr double kDegradedSecondsPerPoint = 2e-6;
constexpr double kDegradedSecondsPerRange = 4e-6;
constexpr double kDegradedSecondsPerResult = 100e-9;
}  // namespace

using serve::BatchScheduler;
using serve::Request;
using serve::RequestKind;
using serve::RequestSource;
using serve::Response;
using serve::ServerReport;

ShardedServer::ShardedServer(ShardedIndex& index,
                             const serve::ServeOptions& config)
    : config_(config),
      injector_(config.faults, config.mitigation, index.num_shards(),
                config.replicas),
      admission_(config.qos),
      tuner_(config.tuner),
      tunables_(serve::Tunables::from(config)),
      index_(index),
      replicas_(config.replicas),
      replica_free_(std::size_t{index.num_shards()} * config.replicas, 0.0),
      groups_(index.num_shards(), ReplicaGroup(config.replicas)),
      rejoin_at_(std::size_t{index.num_shards()} * config.replicas, kNever),
      lost_plan_(std::size_t{index.num_shards()} * config.replicas, 0),
      fence_replica_(index.num_shards(), 0),
      epoch_ops_(index.num_shards()),
      fenced_(index.num_shards(), 0),
      fence_start_(index.num_shards(), 0.0),
      restore_at_(index.num_shards(), kNever),
      cpu_free_(index.num_shards(), 0.0),
      shard_epoch_(index.num_shards(), 0),
      fence_depth_(index.num_shards(), 0),
      window_routed_(index.num_shards(), 0) {
  const unsigned n = index.num_shards();
  config_.validate(n);
  if (config_.durability != nullptr)
    HARMONIA_CHECK(config_.durability->num_shards() == n);
  const obs::Observer& obs = config_.obs;
  for (unsigned s = 0; s < n; ++s) {
    sched_.push_back(std::make_unique<BatchScheduler>(
        *index.shard(s), config_.link, config_.batch, config_.qos));
    engines_.push_back(std::make_unique<serve::EpochUpdater>(
        *index.shard(s), config_.link, config_.epoch));
    if (injector_.active()) {
      sched_[s]->set_fault_context(&injector_, s);
      engines_[s]->set_fault_context(&injector_, s);
    }
    if (config_.durability != nullptr)
      engines_[s]->set_durability(config_.durability->shard(s));
    if (obs.active()) {
      sched_[s]->set_observer(obs, s);
      engines_[s]->set_observer(obs, s);
    }
  }
  if (!obs.active()) return;
  injector_.set_observer(obs);
  if (obs.metrics == nullptr) return;
  obs::MetricsRegistry& m = *obs.metrics;
  const auto edges = obs::LatencyHistogram::exponential_edges(1e-7, 1.0, 28);
  for (std::size_t c = 0; c < qos::kNumClasses; ++c) {
    const std::string labels =
        std::string{"{class=\""} + qos::to_string(qos::priority_at(c)) + "\"}";
    class_metrics_[c].completed = &m.counter("serve_class_completed_total" + labels);
    class_metrics_[c].shed = &m.counter("serve_class_shed_total" + labels);
    class_metrics_[c].dropped = &m.counter("serve_class_dropped_total" + labels);
    class_metrics_[c].throttled = &m.counter("serve_class_throttled_total" + labels);
    class_metrics_[c].latency =
        &m.histogram("serve_class_latency_seconds" + labels, edges);
  }
  tune_applied_ = &m.counter("serve_tune_applied_total");
  tune_vetoed_ = &m.counter("serve_tune_vetoed_total");
  tune_rolled_back_ = &m.counter("serve_tune_rolled_back_total");
  epochs_total_ = &m.counter("serve_epochs_total");
  swap_wait_hist_ = &m.histogram("serve_epoch_swap_wait_seconds", edges);
  stall_hist_ = &m.histogram("serve_epoch_stall_seconds", edges);
  for (unsigned s = 0; s < n; ++s) {
    routed_total_.push_back(
        &m.counter("shard_routed_queries_total{shard=\"" + std::to_string(s) + "\"}"));
  }
  split_ranges_total_ = &m.counter("shard_split_ranges_total");
  split_scans_total_ = &m.counter("shard_split_scans_total");
  degraded_total_ = &m.counter("shard_degraded_requests_total");
}

ShardedServer::ShardedServer(HarmoniaIndex& index,
                             const serve::ServeOptions& config)
    : ShardedServer(std::make_unique<ShardedIndex>(index), config) {}

ShardedServer::ShardedServer(std::unique_ptr<ShardedIndex> owned,
                             const serve::ServeOptions& config)
    : ShardedServer(*owned, config) {
  owned_index_ = std::move(owned);
}

std::size_t ShardedServer::total_depth() const {
  std::size_t n = 0;
  for (const auto& s : sched_) n += s->depth();
  return n;
}

void ShardedServer::drop(const Request& r, unsigned shard, RequestSource& source,
                         ServerReport& report, const char* note) {
  ++report.shard_dropped[shard];
  reject(r, shard_epoch_[shard], shard, note, source, report);
}

std::pair<unsigned, unsigned> ShardedServer::span_of(const Request& r) const {
  const unsigned s0 = index_.plan().shard_of(r.key);
  if (r.kind == RequestKind::kRange) return {s0, index_.plan().shard_of(r.hi)};
  if (r.kind == RequestKind::kScan)
    return {s0, index_.scan_end_shard(r.key, config_.batch.clamp_scan_n(r.scan_n))};
  return {s0, s0};
}

bool ShardedServer::parks(const Request& r) const {
  if (!inflight_.has_value()) return false;
  // Shards disagree on their epoch version between the first and last
  // staggered swap (a flip swaps nothing before it commits).
  const bool mixed_version = inflight_->remaining < num_shards();
  if (!mixed_version && !swap_pending(r.arrival)) return false;
  const auto [s0, s1] = span_of(r);
  if (const auto& f = inflight_->flip)
    return s0 <= std::max(f->donor, f->receiver) &&
           s1 >= std::min(f->donor, f->receiver);
  return s0 != s1;
}

void ShardedServer::submit(const Request& r, RequestSource& source,
                           ServerReport& report) {
  // Hot-range detection rides the arrival clock (queries only — updates
  // never get here), so the cadence needs no extra event source.
  maybe_start_migration(r.arrival);

  // Per-tenant token buckets gate everything shard routing would see: a
  // tenant pushing past its provisioned rate is answered dropped before
  // it can displace anyone. Booked against the owner/first shard.
  const unsigned owner = index_.plan().shard_of(r.key);
  if (throttle(r, shard_epoch_[owner], owner, source, report)) {
    ++report.shard_dropped[owner];
    return;
  }

  // A straddler has no single snapshot to read while a staged epoch's
  // shards disagree on their version, and a request touching a due plan
  // flip's pair is about to be re-routed: park it and re-admit after the
  // commit. Parking starts as soon as a swap is due — admitting more
  // fan-outs then would keep re-raising the version fence and starve the
  // swap under a sustained straddler stream.
  if (parks(r)) {
    if (config_.obs.trace != nullptr)
      config_.obs.trace->stamp(r.id, obs::Stage::kQueueEnter, r.arrival,
                               obs::TraceRecorder::kNoShard,
                               inflight_->flip ? "parked: plan flip pending"
                                               : "parked: shards mid-swap");
    parked_.push_back(r);
    return;
  }
  admit_query(r, r.arrival, source, report);
}

void ShardedServer::handle_evicted(unsigned s, Request victim, double now,
                                   RequestSource& source,
                                   ServerReport& report) {
  if (config_.obs.trace != nullptr)
    config_.obs.trace->annotate(
        now, s,
        "evicted id=" + std::to_string(victim.id) + " class=" +
            qos::to_string(victim.klass));
  Response resp = serve::response_to(victim);
  resp.dropped = true;
  resp.epoch = shard_epoch_[s];
  resp.dispatch = resp.completion = now;
  // An evicted fan-out piece no longer pins the shard's snapshot; its
  // dropped response poisons the parent merge (finish handles both).
  if (resp.id >= kSubIdBase) {
    HARMONIA_CHECK(fence_depth_[s] > 0);
    --fence_depth_[s];
  }
  finish(s, std::move(resp), source, report);
}

void ShardedServer::admit_query(const Request& r, double now,
                                RequestSource& source, ServerReport& report) {
  report.queue_depth.add(static_cast<double>(total_depth()));

  Request q = r;
  if (q.kind == RequestKind::kScan) q.scan_n = config_.batch.clamp_scan_n(q.scan_n);

  if (q.kind == RequestKind::kRange) HARMONIA_CHECK(q.key <= q.hi);
  const auto [s0, s1] = span_of(q);

  // Hotness window: every shard the query's span touches is load it
  // routes there (parked requests count once, at re-admission).
  if (config_.reshard.split_hot) {
    for (unsigned s = s0; s <= s1; ++s) ++window_routed_[s];
  }

  if (s0 == s1) {
    // Whole request inside one shard: an ordinary lane admission.
    if (fenced_[s0]) {
      // The owner shard is fenced: serve the query degraded from the CPU
      // oracle (or shed if its backlog is full) — other ranges unaffected.
      ++report.admitted;
      ++report.shard_admitted[s0];
      ++report.class_admitted[qos::index(q.klass)];
      finish(s0, degraded_serve(s0, q, now), source, report);
      return;
    }
    const BatchScheduler::Admit a = sched_[s0]->admit(q);
    if (a.admitted) {
      ++report.admitted;
      ++report.shard_admitted[s0];
      ++report.class_admitted[qos::index(q.klass)];
      if (a.evicted.has_value())
        handle_evicted(s0, *a.evicted, now, source, report);
    } else {
      drop(q, s0, source, report);
    }
    return;
  }

  // Straddling: split into per-shard sub-requests with clamped bounds,
  // admitted all-or-nothing so a partially-enqueued fan-out never exists.
  // Fenced shards take their piece degraded, so only live shards' lanes
  // are probed — admissible_slots counts evictable lower-class requests
  // too, so under QoS a full lane is still admissible to a higher class.
  // Each queued piece raises its shard's version fence: the shard cannot
  // swap a staged epoch image under a fan-out in flight.
  for (unsigned s = s0; s <= s1; ++s) {
    if (!fenced_[s] && sched_[s]->admissible_slots(q.kind, q.klass) == 0) {
      drop(q, s, source, report);
      return;
    }
  }
  ++report.admitted;
  ++report.shard_admitted[s0];
  ++report.class_admitted[qos::index(q.klass)];
  if (q.kind == RequestKind::kScan) {
    ++report.split_scans;
    if (split_scans_total_ != nullptr) split_scans_total_->inc();
  } else {
    ++report.split_ranges;
    if (split_ranges_total_ != nullptr) split_ranges_total_->inc();
  }
  if (config_.obs.trace != nullptr)
    config_.obs.trace->stamp(q.id, obs::Stage::kQueueEnter, q.arrival, s0,
                             "fan-out shards=" + std::to_string(s1 - s0 + 1));
  PendingMerge merge;
  merge.parts_expected = s1 - s0 + 1;
  merge.original = q;
  merges_.emplace(q.id, std::move(merge));
  for (unsigned s = s0; s <= s1; ++s) {
    Request sub = q;
    sub.id = next_sub_id_++;
    sub.key = std::max(q.key, index_.plan().lo(s));
    if (q.kind == RequestKind::kRange)
      sub.hi = std::min(q.hi, index_.plan().hi(s));
    // Scan pieces keep the full scan_n: earlier shards may hold fewer
    // tail keys than the span estimate counted on; the merge truncates.
    parent_of_.emplace(sub.id, q.id);
    if (config_.obs.trace != nullptr)
      config_.obs.trace->stamp(q.id, obs::Stage::kShardScatter, q.arrival, s,
                               "sub=" + std::to_string(sub.id));
    if (fenced_[s]) {
      finish(s, degraded_serve(s, sub, now), source, report);
      continue;
    }
    const BatchScheduler::Admit a = sched_[s]->admit(sub);
    HARMONIA_CHECK(a.admitted);  // admissible_slots was probed above
    ++fence_depth_[s];
    if (a.evicted.has_value()) handle_evicted(s, *a.evicted, now, source, report);
  }
}

void ShardedServer::finish(unsigned s, Response resp, RequestSource& source,
                           ServerReport& report) {
  if (resp.id < kSubIdBase) {
    deliver(std::move(resp), source, report);
    return;
  }

  // A fan-out piece: park it until its siblings complete.
  const auto parent_it = parent_of_.find(resp.id);
  HARMONIA_CHECK(parent_it != parent_of_.end());
  const std::uint64_t parent = parent_it->second;
  parent_of_.erase(parent_it);
  auto& merge = merges_.at(parent);
  merge.parts.emplace_back(s, std::move(resp));
  if (merge.parts.size() < merge.parts_expected) return;

  // All pieces in: reassemble in shard order (shards are ordered ranges,
  // so concatenation is globally ascending). A dropped piece (shed by a
  // fault mitigation) poisons the whole fan-out — a response with a gap
  // in its range would be silently wrong, so the merge answers dropped.
  std::sort(merge.parts.begin(), merge.parts.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Response merged = serve::response_to(merge.original);
  merged.epoch = epochs_;
  merged.dispatch = kNever;
  bool seen_live = false;
  for (const auto& [shard_ord, part] : merge.parts) {
    (void)shard_ord;
    merged.dispatch = std::min(merged.dispatch, part.dispatch);
    merged.completion = std::max(merged.completion, part.completion);
    if (part.dropped) {
      merged.dropped = true;
      continue;
    }
    // The quiesce barrier and the overlap-mode version fence both
    // guarantee every live piece of a fan-out observed the same epoch —
    // this check is the torn-snapshot tripwire.
    if (!seen_live) {
      seen_live = true;
      merged.epoch = part.epoch;
    }
    HARMONIA_CHECK(part.epoch == merged.epoch);
  }
  if (merged.dropped) {
    merged.range_values.clear();
  } else {
    // Ranges truncate at the scheduler's cap, scans at the request's own
    // (already clamped) scan_n.
    const std::size_t limit = merge.original.kind == RequestKind::kScan
                                  ? merge.original.scan_n
                                  : config_.batch.max_range_results;
    for (const auto& [shard_ord, part] : merge.parts) {
      (void)shard_ord;
      for (Value v : part.range_values) {
        if (merged.range_values.size() >= limit) break;
        merged.range_values.push_back(v);
      }
    }
  }
  const std::size_t parts = merge.parts.size();
  merges_.erase(parent);  // invalidates `merge`
  if (config_.obs.trace != nullptr) {
    config_.obs.trace->stamp(merged.id, obs::Stage::kGatherMerge,
                             merged.completion, obs::TraceRecorder::kNoShard,
                             "parts=" + std::to_string(parts));
  }
  deliver(std::move(merged), source, report);
}

void ShardedServer::handle_dispatch(unsigned s, unsigned r,
                                    BatchScheduler::Dispatch d,
                                    RequestSource& source,
                                    ServerReport& report) {
  rfree(s, r) = d.finish;
  ++report.batches;
  ++report.shard_batches[s];
  ++report.replica_batches[slot(s, r)];
  report.shard_queries[s] += d.batch_size;
  if (!routed_total_.empty()) routed_total_[s]->inc(d.batch_size);
  report.batch_size.add(static_cast<double>(d.batch_size));
  report.busy_seconds += d.service_seconds();
  for (Response& resp : d.responses) {
    // A dequeued fan-out piece lowers its shard's version fence (shed or
    // served — either way it no longer pins the shard's snapshot).
    if (resp.id >= kSubIdBase) {
      HARMONIA_CHECK(fence_depth_[s] > 0);
      --fence_depth_[s];
    }
    finish(s, std::move(resp), source, report);
  }
}

void ShardedServer::release_parked(double now, RequestSource& source,
                                   ServerReport& report) {
  std::vector<Request> parked = std::move(parked_);
  parked_.clear();
  for (const Request& r : parked) admit_query(r, now, source, report);
}

void ShardedServer::fence_shard(unsigned s, unsigned replica, double now,
                                double repair, RequestSource& source,
                                ServerReport& report) {
  fenced_[s] = 1;
  fence_start_[s] = now;
  restore_at_[s] = now + repair;
  groups_[s].lose(replica, shard_epoch_[s]);
  lost_plan_[slot(s, replica)] = plan_version_;
  fence_replica_[s] = replica;
  cpu_free_[s] = std::max(cpu_free_[s], now);
  // The device's in-flight admission queue dies with it. The queued
  // requests are not lost, though: re-route them through the degraded
  // path in arrival order (the CPU backlog bound sheds the excess).
  for (const Request& r : sched_[s]->evict_all()) {
    if (r.id >= kSubIdBase) {
      HARMONIA_CHECK(fence_depth_[s] > 0);
      --fence_depth_[s];
    }
    finish(s, degraded_serve(s, r, now), source, report);
  }
}

void ShardedServer::handle_fault(double now, RequestSource& source,
                                 ServerReport& report) {
  const auto ev = injector_.take_shard_lost(now);
  HARMONIA_CHECK(ev.has_value());
  const unsigned s = ev->shard;
  const unsigned r = ev->replica;
  ReplicaGroup& g = groups_[s];
  // The loss books by its outcome, not its kind: shards_lost counts the
  // losses that fence a shard (or hit one already fenced), replicas_lost
  // the losses a group absorbed.
  const bool absorbed = !fenced_[s] && (g.healthy_count() > 1 || !g.is_healthy(r));
  injector_.book_loss(*ev, /*fenced=*/!absorbed, now);

  if (fenced_[s]) {
    // Already fenced: the new hit extends the outage to the later repair
    // (the replacement device is still down; one restore re-images it).
    restore_at_[s] = std::max(restore_at_[s], now + ev->duration);
    if (config_.obs.trace != nullptr)
      config_.obs.trace->annotate(now, s, "shard outage extended");
    return;
  }

  // Failover: survivors keep serving the whole range from the device
  // path — no fence, no degraded queries.
  if (absorbed) {
    if (!g.is_healthy(r)) {
      // The slot is already down: the new hit extends its outage.
      rejoin_at_[slot(s, r)] =
          std::max(rejoin_at_[slot(s, r)], now + ev->duration);
      if (config_.obs.trace != nullptr)
        config_.obs.trace->annotate(
            now, s, "replica outage extended slot=" + std::to_string(r));
      return;
    }
    g.lose(r, shard_epoch_[s]);
    lost_plan_[slot(s, r)] = plan_version_;
    rejoin_at_[slot(s, r)] = now + ev->duration;
    if (config_.obs.trace != nullptr)
      config_.obs.trace->annotate(
          now, s,
          "replica failover slot=" + std::to_string(r) +
              " survivors=" + std::to_string(g.healthy_count()));
    return;
  }

  // Last healthy member: the whole-shard fence + degraded serving (the
  // only path at K = 1).
  fence_shard(s, r, now, ev->duration, source, report);
}

void ShardedServer::restore_shard(double now, RequestSource& source,
                                  ServerReport& report) {
  unsigned s = 0;
  for (unsigned i = 1; i < restore_at_.size(); ++i)
    if (restore_at_[i] < restore_at_[s]) s = i;
  HARMONIA_CHECK(restore_at_[s] < kNever && fenced_[s]);
  restore_at_[s] = kNever;
  const bool staged = inflight_.has_value() && inflight_->shards[s].staged &&
                      !inflight_->shards[s].swapped;
  const bool flip_side = staged && inflight_->flip.has_value();
  if (staged && !flip_side) {
    commit_shard(s, now, report);
    if (inflight_->remaining == 0) finish_staged(now, source, report);
  }

  // The replacement device comes up empty: re-image it from the host
  // tree, audit the fresh image, and rejoin — except on a flip side, whose
  // host tree holds the post-split keys: it gets the committed image back
  // (the simulator kept the lost device's bytes). The re-image transfer
  // pays any slowdown window live on this shard's link.
  fault::FaultReport& rep = injector_.report();
  HarmoniaIndex& idx = *index_.shard(s);
  if (!flip_side) {
    idx.resync_device();
    ++rep.audits;
    HARMONIA_CHECK_MSG(fault::verify_image(idx), "restored image failed audit");
  }
  ++rep.reimages;
  const double reimage = injector_.transfer_factor(s, now) *
                         image_resync_seconds(idx.committed(), config_.link);
  rep.reimage_seconds += reimage;
  groups_[s].rejoin(fence_replica_[s]);
  double& f = rfree(s, fence_replica_[s]);
  f = std::max(f, now + reimage);
  report.busy_seconds += reimage;

  fenced_[s] = 0;
  ++rep.shards_restored;
  rep.fenced_seconds += now - fence_start_[s];
  if (config_.obs.active()) {
    if (config_.obs.metrics != nullptr)
      config_.obs.metrics->counter("fault_shards_restored_total").inc();
    if (config_.obs.trace != nullptr)
      config_.obs.trace->annotate(now, s, "shard restored: re-imaged and rejoined");
  }
}

double ShardedServer::next_restore_time() const {
  double t = kNever;
  for (const double r : restore_at_) t = std::min(t, r);
  for (const double r : rejoin_at_) t = std::min(t, r);
  return t;
}

void ShardedServer::handle_restore(double now, RequestSource& source,
                                   ServerReport& report) {
  double tr = kNever;
  for (const double t : restore_at_) tr = std::min(tr, t);
  double tj = kNever;
  for (const double t : rejoin_at_) tj = std::min(tj, t);
  // Fence restores win ties: a rejoin deferred behind its shard's fence
  // re-arms at the restore instant and must run second.
  if (tr <= tj)
    restore_shard(now, source, report);
  else
    rejoin_replica(now, report);
}

void ShardedServer::rejoin_replica(double now, ServerReport& report) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < rejoin_at_.size(); ++i)
    if (rejoin_at_[i] < rejoin_at_[best]) best = i;
  HARMONIA_CHECK(rejoin_at_[best] < kNever);
  const unsigned s = static_cast<unsigned>(best / replicas_);
  const unsigned r = static_cast<unsigned>(best % replicas_);
  ReplicaGroup& g = groups_[s];
  HARMONIA_CHECK(!g.is_healthy(r));
  if (fenced_[s]) {
    // A fenced shard's earlier casualties cannot rejoin a group whose
    // range is serving degraded: defer to the shard's own restore (the
    // tie-break above runs the restore first).
    rejoin_at_[best] = restore_at_[s];
    return;
  }
  rejoin_at_[best] = kNever;

  fault::FaultReport& rep = injector_.report();
  std::uint64_t ops = 0;
  std::uint64_t batches = 0;
  double catchup = 0.0;
  const bool reshaped = lost_plan_[best] != plan_version_;
  if (reshaped) {
    // The plan moved while the slot was down; the boundary migration
    // never reaches the update log, so log-shipping cannot converge —
    // pull a full image instead.
    ++rep.reimages;
    catchup = injector_.transfer_factor(s, now) *
              image_resync_seconds(index_.shard(s)->committed(), config_.link);
  } else {
    // Log-shipped catch-up: replay the epochs this slot missed (those
    // after the one it last applied), from the ledger appended at each
    // swap, so persistence never changes the price. An epoch staged on
    // this shard but not yet swapped is replayed too: its upload shipped
    // to the members that were up, so the slot must build that image
    // itself before the swap installs it.
    const std::uint64_t after = g.lost_epoch(r);
    for (const auto& [epoch, count] : epoch_ops_[s]) {
      if (epoch > after) {
        ++batches;
        ops += count;
      }
    }
    if (inflight_.has_value() && !inflight_->flip) {
      const ShardStage& st = inflight_->shards[s];
      if (st.staged && !st.swapped && st.work.ops > 0) {
        ++batches;
        ops += st.work.ops;
      }
    }
    // Ship cost: framed log bytes over the shard's link, then the
    // replica applies the ops at the epoch updater's per-op rate.
    const std::uint64_t bytes = batches * persist::UpdateLog::kRecordFixedBytes +
                                ops * persist::UpdateLog::kOpBytes;
    catchup = engines_[s]->apply_seconds(ops);
    if (ops > 0) catchup += config_.link.seconds(bytes);
  }
  g.rejoin(r);
  rfree(s, r) = now + catchup;
  ++rep.replicas_rejoined;
  rep.catchup_ops += ops;
  rep.catchup_seconds += catchup;
  report.busy_seconds += catchup;
  if (config_.obs.active()) {
    if (config_.obs.metrics != nullptr)
      config_.obs.metrics->counter("fault_replicas_rejoined_total").inc();
    if (config_.obs.trace != nullptr)
      config_.obs.trace->annotate(
          now, s,
          "replica rejoined slot=" + std::to_string(r) +
              (reshaped ? " via re-image (plan moved)"
                        : " catchup_ops=" + std::to_string(ops)));
  }
}

serve::Response ShardedServer::degraded_serve(unsigned s, const Request& r,
                                              double now) {
  const double max_backlog = injector_.mitigation().degraded.max_backlog;
  fault::FaultReport& rep = injector_.report();
  Response resp = serve::response_to(r);
  resp.epoch = shard_epoch_[s];

  // Admission shedding for the affected range only: once the CPU oracle
  // is this far behind, answering dropped beats unbounded latency.
  if (degraded_total_ != nullptr) degraded_total_->inc();
  if (std::max(cpu_free_[s], now) - now > max_backlog) {
    ++rep.degraded_shed;
    resp.dropped = true;
    resp.dispatch = resp.completion = now;
    if (config_.obs.trace != nullptr)
      config_.obs.trace->stamp(r.id, obs::Stage::kDispatch, now, s,
                               "degraded shed: cpu backlog full");
    return resp;
  }

  double cost = 0.0;
  if (r.kind == RequestKind::kPoint) {
    ++rep.degraded_points;
    if (const auto v = index_.shard(s)->search_committed(r.key)) resp.value = *v;
    cost = kDegradedSecondsPerPoint;
  } else {
    // Ranges and scans both walk the committed image; a scan piece reads
    // this shard's tail from its clamped lower bound up to its scan_n.
    ++rep.degraded_ranges;
    const bool scan = r.kind == RequestKind::kScan;
    const auto entries = index_.shard(s)->range_committed(
        std::max(r.key, index_.plan().lo(s)),
        scan ? kPadKey : std::min(r.hi, index_.plan().hi(s)),
        scan ? r.scan_n : config_.batch.max_range_results);
    resp.range_values.reserve(entries.size());
    for (const auto& e : entries) resp.range_values.push_back(e.value);
    cost = kDegradedSecondsPerRange +
           static_cast<double>(entries.size()) * kDegradedSecondsPerResult;
  }
  const double begin = std::max(cpu_free_[s], now);
  cpu_free_[s] = begin + cost;
  rep.degraded_seconds += cost;
  resp.dispatch = begin;
  resp.completion = cpu_free_[s];
  if (config_.obs.trace != nullptr)
    config_.obs.trace->stamp(r.id, obs::Stage::kDispatch, begin, s, "degraded");
  return resp;
}

void ShardedServer::maybe_start_migration(double now) {
  if (!config_.reshard.split_hot) return;
  if (now < next_detect_) return;
  next_detect_ = now + config_.reshard.detect_every;

  // Sample and reset the window on every cadence tick (even when a
  // trigger is impossible right now, so hotness never accumulates
  // stale history across a migration).
  const unsigned n = index_.num_shards();
  std::vector<std::uint64_t> window(n);
  for (unsigned s = 0; s < n; ++s)
    window[s] = window_routed_[s] + sched_[s]->depth();
  std::fill(window_routed_.begin(), window_routed_.end(), 0);

  if (inflight_.has_value()) return;
  if (migrations_done_ >= config_.reshard.max_migrations) return;

  unsigned h = 0;
  std::uint64_t total = 0;
  for (unsigned s = 0; s < n; ++s) {
    total += window[s];
    if (window[s] > window[h]) h = s;
  }
  if (window[h] < config_.reshard.min_window_queries) return;
  const double mean = static_cast<double>(total) / static_cast<double>(n);
  if (static_cast<double>(window[h]) <= config_.reshard.hot_factor * mean)
    return;
  // The colder adjacent neighbor takes the ceded half (boundaries only
  // move between adjacent shards — ranges stay contiguous).
  const unsigned recv = h == 0         ? 1u
                        : h == n - 1   ? n - 2
                        : window[h - 1] <= window[h + 1] ? h - 1
                                                         : h + 1;
  if (fenced_[h] || fenced_[recv]) return;
  // Both groups must be whole: a staged commit installed while a member
  // is down would strand that member on the pre-split image with no log
  // record to replay (the rejoin would full-re-image instead — legal,
  // but starting the split while degraded is not worth it).
  if (groups_[h].healthy_count() < replicas_ ||
      groups_[recv].healthy_count() < replicas_)
    return;
  start_migration(h, recv, now);
}

void ShardedServer::start_migration(unsigned donor, unsigned receiver,
                                    double now) {
  HarmoniaIndex& didx = *index_.shard(donor);
  HarmoniaIndex& ridx = *index_.shard(receiver);
  // Delta-mode overlays complicate the moved-key set (overlay entries
  // in the ceded range would survive in the donor's rebuilt image):
  // defer the split until the overlays compact.
  if (didx.overlay_size() + ridx.overlay_size() > 0) return;
  const std::uint64_t keys = didx.tree().num_keys();
  if (keys < 2) return;
  // The plan is not persisted, so ServeOptions::validate rejects
  // split_hot with persistence: the engines' write-ahead append in
  // stage() below never logs a migration's bookkeeping ops.
  HARMONIA_CHECK(config_.durability == nullptr);

  // Cut the hot range at its median key and hand the half adjacent to
  // the receiver across the boundary.
  PlanFlip flip;
  flip.donor = donor;
  flip.receiver = receiver;
  const auto entries =
      index_.range_host(index_.plan().lo(donor), index_.plan().hi(donor));
  HARMONIA_CHECK(entries.size() == keys);
  const std::size_t mid = entries.size() / 2;
  const Key split_key = entries[mid].key;
  const std::span<const Key> bounds = index_.plan().lower_bounds();
  flip.new_lo.assign(bounds.begin(), bounds.end());
  std::span<const btree::Entry> moved;
  if (receiver > donor) {
    moved = std::span<const btree::Entry>(entries).subspan(mid);
    flip.new_lo[receiver] = split_key;
  } else {
    moved = std::span<const btree::Entry>(entries).subspan(0, mid);
    flip.new_lo[donor] = split_key;
  }
  flip.moved_keys = moved.size();

  // Both post-split images stage through the shards' engines like an
  // overlap epoch (builds in the host trees — the overlays are empty —
  // then background uploads), while the old plan keeps serving off the
  // committed images. Migration ops are bookkeeping, not client updates:
  // their stats never reach updates_applied.
  std::vector<queries::UpdateOp> del;
  std::vector<queries::UpdateOp> ins;
  del.reserve(moved.size());
  ins.reserve(moved.size());
  for (const btree::Entry& e : moved) {
    del.push_back({queries::OpKind::kDelete, e.key, 0});
    ins.push_back({queries::OpKind::kInsert, e.key, e.value});
  }
  InflightEpoch ep;
  ep.ordinal = epochs_;  // a flip commits no epoch
  ep.trigger = now;
  ep.shards.resize(num_shards());
  ep.remaining = num_shards();  // nothing swaps before the flip
  ep.flip = std::move(flip);
  // The donor side stages and uploads first.
  const ShardOps sides[] = {{donor, del}, {receiver, ins}};
  stage_epoch(ep, sides, now);
  upload_epoch(ep, sides);

  if (config_.obs.trace != nullptr)
    config_.obs.trace->annotate(
        now, donor,
        "reshard start: hot shard cedes " + std::to_string(ep.flip->moved_keys) +
            " keys to shard " + std::to_string(receiver) + " at key " +
            std::to_string(split_key));
  inflight_ = std::move(ep);
}

void ShardedServer::commit_migration(double now, RequestSource& source,
                                     ServerReport& report) {
  InflightEpoch ep = std::move(*inflight_);
  inflight_.reset();
  const PlanFlip& f = ep.flip.value();
  HARMONIA_CHECK(sched_[f.donor]->empty() && sched_[f.receiver]->empty());
  HARMONIA_CHECK(fence_depth_[f.donor] == 0 && fence_depth_[f.receiver] == 0);

  // The atomic flip: both post-split images install and the plan moves
  // in one event — no instant exists where routing and images disagree.
  engines_[f.donor]->commit();
  engines_[f.receiver]->commit();
  index_.set_plan(ShardPlan::from_bounds(f.new_lo));
  ++plan_version_;
  ++migrations_done_;

  ++report.migrations;
  report.migrated_keys += f.moved_keys;
  report.migration_build_seconds += ep.build_seconds;
  report.migration_upload_seconds += std::max(ep.shards[f.donor].upload_seconds,
                                              ep.shards[f.receiver].upload_seconds);
  report.plan_version = plan_version_;

  if (config_.obs.active()) {
    if (config_.obs.metrics != nullptr) {
      config_.obs.metrics->counter("reshard_migrations_total").inc();
      config_.obs.metrics->gauge("shard_plan_version")
          .set(static_cast<double>(plan_version_));
    }
    if (config_.obs.trace != nullptr)
      config_.obs.trace->annotate(
          now, f.donor,
          "reshard commit: moved " + std::to_string(f.moved_keys) +
              " keys to shard " + std::to_string(f.receiver) +
              " plan_version=" + std::to_string(plan_version_));
  }

  // Routing is consistent again: install any latched tunables snapshot,
  // then re-admit the parked requests under the new plan (original
  // arrivals kept, so their deadlines stay urgent).
  at_fleet_swap_boundary(now);
  release_parked(now, source, report);
}

}  // namespace harmonia::shard
