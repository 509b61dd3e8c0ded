// ShardedServer's virtual-clock event loop, fleet epoch composition,
// response accounting and tunables latch (routing, replicas, faults and
// migrations live in sharded_server.cpp).
#include "shard/sharded_server.hpp"

#include <algorithm>
#include <string>

#include "common/expect.hpp"

namespace harmonia::shard {

using serve::EpochMode;
using serve::EpochUpdater;
using serve::Request;
using serve::RequestKind;
using serve::RequestSource;
using serve::Response;
using serve::ServerReport;
using serve::TuneAction;
using serve::Tunables;

void ShardedServer::note_tune(TuneAction action, const std::string& note, double now) {
  if (action == TuneAction::kNone) return;
  obs::Counter* c = action == TuneAction::kApply    ? tune_applied_
                    : action == TuneAction::kVeto ? tune_vetoed_
                                                  : tune_rolled_back_;
  if (c != nullptr) c->inc();
  if (config_.obs.trace != nullptr) {
    config_.obs.trace->annotate(now, obs::TraceRecorder::kNoShard,
                                std::string{"tune "} + to_string(action) +
                                    (note.empty() ? "" : " ") + note);
  }
}

void ShardedServer::apply_tunables(const Tunables& t, double /*now*/) {
  // Validate against the construction-time config before touching
  // anything; adoption happens only on success.
  t.validate(config_);
  // Scheduler knobs install between dispatches on every shard — formed
  // batches are immutable, so this is always safe.
  for (auto& sched : sched_) sched->set_batch_knobs(t.max_batch, t.max_wait);
  if (inflight_.has_value()) {
    // Swap-boundary latch: shards swap staggered inside an epoch (and a
    // plan flip rebuilds two shards), so installing image/PSA knobs now
    // would let queries admitted under the old image — or replicas and
    // straddling fan-outs — observe mixed values. They land at the
    // fleet-wide boundary instead.
    pending_query_ = t;
  } else {
    pending_query_.reset();
    install_query_knobs(t);
  }
  tunables_ = t;
}

void ShardedServer::install_query_knobs(const Tunables& t) {
  for (auto& sched : sched_) sched->set_query_knobs(t.group_size, t.sort_bits);
}

void ShardedServer::at_fleet_swap_boundary(double now) {
  if (pending_query_.has_value()) {
    install_query_knobs(*pending_query_);
    pending_query_.reset();
  }
  if (tuner_ != nullptr) {
    const auto rec = engines_[0]->index().recommend_query_knobs();
    tuner_->observe_profile(now, rec.group_size, rec.sort_bits);
  }
}

void ShardedServer::deliver(Response resp, RequestSource& source,
                            ServerReport& report) {
  const std::size_t c = qos::index(resp.klass);
  if (resp.dropped) {
    // A fault mitigation or QoS eviction gave up on this admitted query:
    // a shed, not an admission drop.
    ++report.shed;
    ++report.class_shed[c];
    if (class_metrics_[c].shed != nullptr) class_metrics_[c].shed->inc();
  } else {
    ++report.completed;
    report.latency.add(resp.latency());
    report.queue_delay.add(resp.queue_delay());
    ++report.class_completed[c];
    report.class_latency[c].add(resp.latency());
    if (class_metrics_[c].completed != nullptr) {
      class_metrics_[c].completed->inc();
      class_metrics_[c].latency->observe(resp.latency());
    }
  }
  if (config_.obs.trace != nullptr) {
    config_.obs.trace->stamp(resp.id, obs::Stage::kReply, resp.completion,
                             obs::TraceRecorder::kNoShard,
                             resp.dropped ? "shed" : std::string{});
  }
  report.makespan = std::max(report.makespan, resp.completion);
  source.on_complete(resp);
  report.responses.push_back(std::move(resp));
}

void ShardedServer::answer_dropped(const Request& r, double now, unsigned epoch,
                                   unsigned shard, const char* note,
                                   RequestSource& source, ServerReport& report) {
  Response resp = serve::response_to(r);
  resp.dropped = true;
  resp.epoch = epoch;
  resp.dispatch = resp.completion = now;
  if (config_.obs.trace != nullptr)
    config_.obs.trace->stamp(resp.id, obs::Stage::kReply, resp.completion, shard, note);
  report.makespan = std::max(report.makespan, resp.completion);
  source.on_complete(resp);
  report.responses.push_back(std::move(resp));
}

void ShardedServer::reject(const Request& r, unsigned epoch, unsigned shard,
                           const char* note, RequestSource& source,
                           ServerReport& report) {
  const std::size_t c = qos::index(r.klass);
  ++report.dropped;
  ++report.class_dropped[c];
  if (class_metrics_[c].dropped != nullptr) class_metrics_[c].dropped->inc();
  answer_dropped(r, r.arrival, epoch, shard, note, source, report);
}

bool ShardedServer::throttle(const Request& r, unsigned epoch, unsigned shard,
                             RequestSource& source, ServerReport& report) {
  if (!admission_.throttling() || admission_.admit(r.tenant, r.arrival)) return false;
  const std::size_t c = qos::index(r.klass);
  ++report.throttled;
  ++report.class_throttled[c];
  if (class_metrics_[c].throttled != nullptr) class_metrics_[c].throttled->inc();
  reject(r, epoch, shard, "throttled", source, report);
  return true;
}

void ShardedServer::buffer_update(const Request& r) {
  pending_updates_.push_back(r);
  if (config_.obs.trace != nullptr)
    config_.obs.trace->stamp(r.id, obs::Stage::kQueueEnter, r.arrival,
                             obs::TraceRecorder::kNoShard, "update");
}

double ShardedServer::next_epoch_time(double now) const {
  if (pending_updates_.empty()) return kNever;
  // One staging buffer: the next epoch cannot start to build (or patch)
  // until every shard swapped the in-flight one, or until a plan flip
  // moved the op scatter. In quiesce mode only a flip is ever in flight.
  if (inflight_.has_value()) return kNever;
  return pending_updates_.size() >= config_.epoch.max_buffered
             ? now
             : pending_updates_.front().arrival + config_.epoch.max_wait;
}

void ShardedServer::epoch_begin(double now, RequestSource& source,
                                ServerReport& report) {
  if (config_.epoch.mode == EpochMode::kQuiesce)
    run_quiesce(now, source, report);
  else
    begin_staged(now, /*held=*/false);
}

std::vector<std::vector<queries::UpdateOp>> ShardedServer::scatter(
    const std::vector<Request>& requests) const {
  // Ops commute across shards (disjoint key ranges) but not within one:
  // each shard keeps arrival order.
  std::vector<std::vector<queries::UpdateOp>> per_shard(num_shards());
  for (const Request& r : requests)
    per_shard[index_.plan().shard_of(r.key)].push_back({r.op, r.key, r.value});
  return per_shard;
}

void ShardedServer::book_epoch(const UpdateStats& stats, double build,
                               double upload, bool patch, ServerReport& report) {
  ++report.epochs;
  if (epochs_total_ != nullptr) epochs_total_->inc();
  report.updates_applied += stats.total_ops();
  report.updates_failed += stats.failed;
  report.epoch_build_seconds += build;
  report.epoch_upload_seconds += upload;
  if (patch) {
    ++report.patch_epochs;
    report.epoch_patch_build_seconds += build;
    report.epoch_patch_upload_seconds += upload;
  } else {
    ++report.compaction_epochs;
    report.epoch_compaction_build_seconds += build;
    report.epoch_compaction_upload_seconds += upload;
  }
}

void ShardedServer::answer_updates(const std::vector<Request>& requests,
                                   double dispatch, double completion,
                                   const std::string& note, RequestSource& source,
                                   ServerReport& report) {
  for (const Request& r : requests) {
    Response resp = serve::response_to(r);
    resp.epoch = epochs_;
    resp.dispatch = dispatch;
    resp.completion = completion;
    if (config_.obs.trace != nullptr) {
      config_.obs.trace->stamp(resp.id, obs::Stage::kDispatch, dispatch,
                               obs::TraceRecorder::kNoShard, note);
      config_.obs.trace->stamp(resp.id, obs::Stage::kReply, completion,
                               obs::TraceRecorder::kNoShard);
    }
    report.makespan = std::max(report.makespan, resp.completion);
    source.on_complete(resp);
    report.responses.push_back(std::move(resp));
  }
}

void ShardedServer::drain_queries(double at, RequestSource& source,
                                  ServerReport& report) {
  for (unsigned s = 0; s < sched_.size(); ++s) {
    while (!sched_[s]->empty()) {
      const unsigned r = groups_[s].pick(group_span(s));
      handle_dispatch(
          s, r, sched_[s]->dispatch_ready(at, rfree(s, r), shard_epoch_[s]),
          source, report);
    }
  }
}

void ShardedServer::run_quiesce(double at, RequestSource& source,
                                ServerReport& report) {
  drain_queries(at, source, report);

  // Barrier: the epoch starts when the slowest device drains (every
  // replica slot — a lost slot's stale timeline is harmlessly past).
  double start = at;
  for (const double f : replica_free_) start = std::max(start, f);
  for (const double f : replica_free_)
    report.barrier_wait_seconds += start - std::max(at, f);
  if (config_.obs.trace != nullptr) {
    config_.obs.trace->annotate(
        start, obs::TraceRecorder::kNoShard,
        "epoch barrier epoch=" + std::to_string(epochs_ + 1) +
            " updates=" + std::to_string(pending_updates_.size()));
  }

  // The epoch stages like any other, but held: it completes inside this
  // event, so no lose or restore can fall between its start and finish
  // (it would stamp epoch N on answers that read image N+1).
  begin_staged(start, /*held=*/true);
  const double finish = inflight_->shards[0].ready;
  // Every device is held through the epoch: admission reopens on all
  // shards at the same instant (the atomicity the stress tests pin).
  // Replicas stall alongside — each holds a full image copy.
  const double stall = (finish - start) * static_cast<double>(replica_free_.size());
  report.epoch_stall_seconds += stall;
  report.busy_seconds += stall;
  if (stall_hist_ != nullptr) stall_hist_->observe(stall);
  for (double& f : replica_free_) f = finish;
  for (unsigned s = 0; s < num_shards(); ++s) commit_shard(s, finish, report);
  finish_staged(finish, source, report);
}

void ShardedServer::begin_staged(double now, bool held) {
  const unsigned n = num_shards();
  InflightEpoch ep;
  ep.ordinal = epochs_ + 1;
  ep.trigger = now;
  ep.held = held;
  ep.requests = std::move(pending_updates_);
  pending_updates_.clear();
  ep.shards.resize(n);
  ep.remaining = n;
  const auto per_shard = scatter(ep.requests);
  std::vector<ShardOps> sides;
  for (unsigned s = 0; s < n; ++s)
    if (!per_shard[s].empty()) sides.emplace_back(s, per_shard[s]);
  stage_epoch(ep, sides, now);
  if (!held && config_.obs.trace != nullptr)
    config_.obs.trace->annotate(now, obs::TraceRecorder::kNoShard,
                                "epoch build start epoch=" + std::to_string(ep.ordinal) +
                                    " ops=" + std::to_string(ep.requests.size()) +
                                    (ep.patch ? " patch" : ""));
  upload_epoch(ep, sides);
  inflight_ = std::move(ep);
}

void ShardedServer::stage_epoch(InflightEpoch& ep, std::span<const ShardOps> sides,
                                double now) {
  // One host CPU works the sides back to back. Each shard logs at `now`,
  // then patches in place or stages a full build: a held epoch, a plan
  // flip, a fenced shard (no live image to patch) and a shard whose
  // gaps/overlay exhaust all build full images.
  std::uint64_t fold_ops = 0;
  for (const auto& [s, ops] : sides) {
    ShardStage& st = ep.shards[s];
    st.staged = true;
    st.work = engines_[s]->stage(ep.ordinal, ops, now,
                                 !ep.held && !ep.flip && !fenced_[s]);
    ep.build_seconds += st.work.patch_seconds;
    ep.build_seconds += st.work.fold_seconds;
    fold_ops += st.work.fold_ops;
    ep.patch = ep.patch && st.work.patch;
    ep.stats += st.work.stats;
  }
  // The build charge sums side by side, except a held epoch's: its
  // summed fold counts times the price, once (quiesce's fleet FP order).
  if (ep.held) ep.build_seconds = engines_[0]->apply_seconds(fold_ops);
  ep.build_done = now + ep.build_seconds;
}

void ShardedServer::upload_epoch(InflightEpoch& ep, std::span<const ShardOps> sides) {
  // The sides' images cross their own links concurrently from build_done,
  // in side order. A staged upload fills a second buffer that is audited
  // before its swap. A held epoch commits first and charges the resync of
  // the one served image: an armed corruption hits that image, and the
  // CRC32 audit repairs it.
  double slowest = 0.0;
  for (const auto& [s, ops] : sides) {
    ShardStage& st = ep.shards[s];
    if (ep.held) engines_[s]->commit();
    st.upload_seconds = ep.held ? engines_[s]->resync(ep.build_done)
                                : engines_[s]->upload(ep.build_done);
    slowest = std::max(slowest, st.upload_seconds);
  }
  // An untouched shard has nothing to upload: it swaps (a version bump)
  // as soon as the build finishes and its fence is clear. A held epoch
  // stalls every shard until the slowest resync ends.
  for (ShardStage& st : ep.shards)
    st.ready = ep.build_done + (ep.held ? slowest : st.upload_seconds);
}

bool ShardedServer::swap_pending(double now) const {
  if (!inflight_.has_value()) return false;
  if (const auto& f = inflight_->flip)
    return inflight_->shards[f->donor].ready <= now &&
           inflight_->shards[f->receiver].ready <= now;
  for (const ShardStage& st : inflight_->shards) {
    if (!st.swapped && st.ready <= now) return true;
  }
  return false;
}

double ShardedServer::swap_time(unsigned s, double ready) const {
  // Queued fan-out pieces pin the shard's snapshot. A fenced (lost) shard
  // is not serving: its host-side swap needs no batch boundary. A live
  // shard swaps when its whole replica group is between batches (the
  // staged image ships to every member; a lost member never holds the
  // swap — catch-up covers it on rejoin).
  if (fence_depth_[s] > 0) return kNever;
  return fenced_[s] ? ready : std::max(ready, group_free(s));
}

double ShardedServer::next_swap_time() const {
  if (!inflight_.has_value()) return kNever;
  if (const auto& f = inflight_->flip) {
    // The flip needs both shards fully drained: empty queues, no fan-out
    // pieces pinning a snapshot, groups idle between batches. New work
    // touching the pair parks once the staged sides are ready, so the
    // drain converges.
    double t = 0.0;
    for (const unsigned s : {f->donor, f->receiver}) {
      if (!sched_[s]->empty() || fence_depth_[s] > 0) return kNever;
      t = std::max({t, inflight_->shards[s].ready, group_free(s)});
    }
    return t;
  }
  double t = kNever;
  for (unsigned s = 0; s < num_shards(); ++s) {
    const ShardStage& st = inflight_->shards[s];
    if (!st.swapped) t = std::min(t, swap_time(s, st.ready));
  }
  return t;
}

void ShardedServer::epoch_commit(double now, RequestSource& source,
                                 ServerReport& report) {
  HARMONIA_CHECK(inflight_.has_value());
  if (inflight_->flip.has_value()) {
    commit_migration(now, source, report);
    return;
  }
  // The due shard: earliest swap time among unswapped, unblocked shards
  // (ties break to the lowest id — deterministic stagger order).
  unsigned best = 0;
  double bt = kNever;
  for (unsigned s = 0; s < num_shards(); ++s) {
    const ShardStage& st = inflight_->shards[s];
    if (st.swapped) continue;
    const double t = swap_time(s, st.ready);
    if (t < bt) {
      bt = t;
      best = s;
    }
  }
  HARMONIA_CHECK(bt < kNever);
  commit_shard(best, now, report);
  if (inflight_->remaining == 0) finish_staged(now, source, report);
}

void ShardedServer::commit_shard(unsigned s, double now, ServerReport& report) {
  InflightEpoch& ep = *inflight_;
  ShardStage& st = ep.shards[s];
  // The swap is a pointer flip (or a flush of the queued patch writes):
  // no device time beyond the instant — the upload already happened in
  // the background. A held shard committed before its resync.
  if (st.staged && !ep.held) engines_[s]->commit();
  st.swapped = true;
  on_swapped(s, ep.ordinal, st.work.ops);
  // A restore swaps a lost shard's piece before it is ready: no wait. A
  // held shard swaps at `ready` after a stall, not a wait: its engine
  // books the stall, and the fleet swap-wait histogram sees nothing.
  const double wait = std::max(0.0, now - st.ready);
  report.epoch_swap_wait_seconds += wait;
  if (swap_wait_hist_ != nullptr && !ep.held) swap_wait_hist_->observe(wait);
  if (st.staged) {
    engines_[s]->snapshot(ep.ordinal, !st.work.patch, now);
    engines_[s]->observe(st.work, st.upload_seconds, wait,
                         ep.held ? now - ep.trigger : 0.0);
  }
  if (config_.obs.trace != nullptr && !ep.held)
    config_.obs.trace->annotate(now, s,
                                "epoch swap epoch=" + std::to_string(ep.ordinal) +
                                    (st.work.patch ? " patch" : ""));
  HARMONIA_CHECK(ep.remaining > 0);
  --ep.remaining;
}

void ShardedServer::on_swapped(unsigned s, unsigned epoch, std::uint64_t ops) {
  shard_epoch_[s] = epoch;
  // Catch-up ledger: a lost replica rejoining later replays exactly the
  // per-shard op counts recorded here (mirrors the WAL's granularity).
  if (replicas_ > 1 && ops > 0) epoch_ops_[s].emplace_back(epoch, ops);
}

void ShardedServer::finish_staged(double now, RequestSource& source,
                                  ServerReport& report) {
  InflightEpoch ep = std::move(*inflight_);
  inflight_.reset();
  ++epochs_;
  HARMONIA_CHECK(epochs_ == ep.ordinal);
  // Touched images uploaded concurrently: the wall charge is the
  // slowest. An epoch books as "patch" only when every staged shard
  // patched in place; one compacting shard tips it into compaction.
  double upload = 0.0;
  for (const ShardStage& st : ep.shards) upload = std::max(upload, st.upload_seconds);
  book_epoch(ep.stats, ep.build_seconds, upload, ep.patch, report);
  // The update requests complete at the last shard swap: only then is
  // the epoch observable everywhere.
  answer_updates(ep.requests, ep.trigger, now,
                 "epoch=" + std::to_string(epochs_) + (ep.held ? "" : " staged"),
                 source, report);
  at_fleet_swap_boundary(now);
  release_parked(now, source, report);
}

double ShardedServer::next_batch_time(double now) const {
  double t_batch = kNever;
  for (unsigned s = 0; s < sched_.size(); ++s) {
    if (sched_[s]->empty()) continue;
    const double trigger =
        sched_[s]->size_ready() ? now : sched_[s]->next_deadline();
    t_batch = std::min(t_batch, std::max(trigger, shard_min_free(s)));
  }
  return t_batch;
}

void ShardedServer::dispatch_ready_batch(double now, RequestSource& source,
                                         ServerReport& report) {
  // Re-derive the earliest shard at `now` (ties break to the lowest id).
  unsigned best = 0;
  double bt = kNever;
  for (unsigned s = 0; s < sched_.size(); ++s) {
    if (sched_[s]->empty()) continue;
    const double trigger =
        sched_[s]->size_ready() ? now : sched_[s]->next_deadline();
    const double t = std::max(trigger, shard_min_free(s));
    if (t < bt) {
      bt = t;
      best = s;
    }
  }
  HARMONIA_CHECK(bt < kNever);
  const unsigned r = groups_[best].pick(group_span(best));
  handle_dispatch(best, r,
                  sched_[best]->dispatch_ready(now, rfree(best, r),
                                               shard_epoch_[best]),
                  source, report);
}

void ShardedServer::final_drain(double now, RequestSource& source,
                                ServerReport& report) {
  // Pending restores and replica rejoins complete first (lose events not
  // yet fired are inert past stream end).
  while (next_restore_time() < kNever) {
    now = std::max(now, next_restore_time());
    handle_restore(now, source, report);
  }
  while (true) {
    for (unsigned s = 0; s < sched_.size(); ++s) {
      while (!sched_[s]->empty()) {
        const unsigned r = groups_[s].pick(group_span(s));
        handle_dispatch(s, r,
                        sched_[s]->dispatch_ready(std::max(now, rfree(s, r)),
                                                  rfree(s, r),
                                                  shard_epoch_[s]),
                        source, report);
      }
    }
    if (inflight_.has_value()) {
      // Queues are drained, so every fence is clear: the plan flip,
      // or the remaining staggered swaps in order, are unconditionally
      // due. The flip and the last swap re-admit parked requests, which
      // refill the schedulers — hence the outer loop.
      const double t = next_swap_time();
      HARMONIA_CHECK(t < kNever);
      now = std::max(now, t);
      epoch_commit(now, source, report);
      continue;
    }
    break;
  }
  // Leftover updates at stream end: nothing is left to overlap with, so
  // both modes close out with a quiesce-style final epoch.
  if (!pending_updates_.empty()) run_quiesce(now, source, report);
}

void ShardedServer::finish_run(ServerReport& report) {
  HARMONIA_CHECK(merges_.empty());  // every fan-out reassembled
  HARMONIA_CHECK(!inflight_.has_value());
  HARMONIA_CHECK(parked_.empty());
  report.plan_version = plan_version_;
  report.faults = injector_.report();
  obs::MetricsRegistry* m = config_.obs.metrics;
  if (config_.durability != nullptr) {
    report.log_batches += config_.durability->total_log_batches();
    report.snapshots_written += config_.durability->total_snapshots_written();
    if (m != nullptr) {
      m->gauge("persist_log_batches").set(static_cast<double>(report.log_batches));
      m->gauge("persist_snapshots_written")
          .set(static_cast<double>(report.snapshots_written));
    }
  }
  if (m != nullptr) {
    m->gauge("serve_makespan_seconds").set(report.makespan);
    m->gauge("serve_busy_seconds").set(report.busy_seconds);
  }
}

void ShardedServer::run_tune_tick(double now) {
  serve::TuneDecision d = tuner_->tick(now, tunables_);
  switch (d.action) {
    case TuneAction::kNone:
      return;
    case TuneAction::kVeto:
      note_tune(TuneAction::kVeto, d.note, now);
      return;
    case TuneAction::kApply:
    case TuneAction::kRollback:
      try {
        apply_tunables(d.target, now);
      } catch (const ContractViolation&) {
        // Guard rail: a proposal the runtime can't honor (e.g. a batch
        // size above the construction-time queue capacity) must not take
        // the server down — it becomes a veto the controller observes as
        // a move with no effect.
        note_tune(TuneAction::kVeto, d.note + " (rejected)", now);
        return;
      }
      note_tune(d.action, d.note, now);
      return;
  }
}

ServerReport ShardedServer::run(RequestSource& source) {
  ServerReport report;
  report.shard_batches.assign(num_shards(), 0);
  report.shard_queries.assign(num_shards(), 0);
  report.shard_admitted.assign(num_shards(), 0);
  report.shard_dropped.assign(num_shards(), 0);
  report.replica_batches.assign(replica_free_.size(), 0);
  report.plan_version = plan_version_;
  double now = 0.0;

  while (true) {
    const Request* next = source.peek();
    const double t_arrival = next ? next->arrival : kNever;

    // A batch dispatches when BOTH its trigger (size reached, or oldest
    // member hit the deadline) has fired AND its device is free. Until
    // then its members stay in the bounded queue — that is what turns
    // device saturation into backpressure at admission instead of an
    // unbounded in-flight backlog.
    const double t_batch = next_batch_time(now);
    const double t_epoch = next_epoch_time(now);
    const double t_swap = next_swap_time();

    if (t_arrival == kNever && t_batch == kNever && t_epoch == kNever &&
        t_swap == kNever) {
      // Stream exhausted and no armed trigger (possible only with
      // infinite deadlines): final drain — queries first, then any staged
      // epoch, then leftovers of the update buffer as a last epoch.
      final_drain(now, source, report);
      if (!source.peek()) break;  // on_complete may have injected arrivals
      continue;
    }

    // Fault events cut ahead of same-instant work: a shard lost at t is
    // fenced before anything else dispatches at t, and a due restore
    // rejoins its shard before new work routes around it.
    const double t_work = std::min(std::min(t_arrival, t_batch),
                                   std::min(t_epoch, t_swap));
    const double t_fault =
        injector_.active() ? injector_.next_shard_lost_time() : kNever;
    const double t_restore = next_restore_time();
    if (t_fault <= t_work && t_fault <= t_restore) {
      now = std::max(now, t_fault);
      handle_fault(now, source, report);
      continue;
    }
    if (t_restore <= t_work) {
      now = std::max(now, t_restore);
      handle_restore(now, source, report);
      continue;
    }

    // Controller ticks run strictly between work events (same-instant
    // work wins, so a decision lands at a batch-formation boundary) and
    // never once the stream has drained — an idle server has nothing to
    // tune, and the loop above must reach final_drain.
    if (tuner_ != nullptr && tuner_->next_tick() < t_work) {
      now = std::max(now, tuner_->next_tick());
      run_tune_tick(now);
      continue;
    }

    // A due swap outranks same-instant work: the swap IS the batch
    // boundary, so a batch triggering at the same instant dispatches
    // against the fresh image.
    if (t_swap <= t_arrival && t_swap <= t_batch && t_swap <= t_epoch) {
      now = std::max(now, t_swap);
      epoch_commit(now, source, report);
    } else if (t_arrival <= t_batch && t_arrival <= t_epoch) {
      now = t_arrival;
      const Request r = source.pop();
      ++report.arrivals;
      ++report.class_arrivals[qos::index(r.klass)];
      if (r.kind == RequestKind::kUpdate) {
        ++report.admitted;
        ++report.update_requests;
        ++report.class_admitted[qos::index(r.klass)];
        ++report.class_update_requests[qos::index(r.klass)];
        buffer_update(r);  // size trigger fires via t_epoch next round
      } else {
        submit(r, source, report);
      }
    } else if (t_batch <= t_epoch) {
      now = t_batch;
      dispatch_ready_batch(now, source, report);
    } else {
      now = t_epoch;
      epoch_begin(now, source, report);
    }
  }

  finish_run(report);
  report.check_invariants();
  return report;
}

ServerReport ShardedServer::run(std::span<const Request> requests) {
  serve::VectorSource source(std::vector<Request>(requests.begin(), requests.end()));
  return run(source);
}

}  // namespace harmonia::shard
