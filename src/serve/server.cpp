#include "serve/server.hpp"

#include <algorithm>

namespace harmonia::serve {

Server::Server(HarmoniaIndex& index, const ServeOptions& config)
    : Backend(config, {&index}), scheduler_(*sched_[0]) {}

void Server::handle_dispatch(BatchScheduler::Dispatch d, RequestSource& source,
                             ServerReport& report) {
  device_free_ = d.finish;
  ++report.batches;
  report.batch_size.add(static_cast<double>(d.batch_size));
  report.busy_seconds += d.service_seconds();
  for (Response& resp : d.responses) deliver(std::move(resp), source, report);
}

void Server::drain_queries(double at, RequestSource& source, ServerReport& report) {
  // Every batch admitted before the epoch trigger is served by the
  // pre-epoch tree: they dispatch now, and the device serializes them
  // ahead of the update application.
  while (!scheduler_.empty())
    handle_dispatch(scheduler_.dispatch_ready(at, device_free_, epochs()), source,
                    report);
}

double Server::next_batch_time(double now) const {
  if (scheduler_.empty()) return kNever;
  const double trigger =
      scheduler_.size_ready() ? now : scheduler_.next_deadline();
  return std::max(trigger, device_free_);
}

void Server::dispatch_ready_batch(double now, RequestSource& source,
                                  ServerReport& report) {
  handle_dispatch(scheduler_.dispatch_ready(now, device_free_, epochs()), source,
                  report);
}

void Server::submit(const Request& r, RequestSource& source,
                    ServerReport& report) {
  report.queue_depth.add(static_cast<double>(scheduler_.depth()));
  if (throttle(r, epochs(), 0, source, report)) return;

  const BatchScheduler::Admit a = scheduler_.admit(r);
  if (!a) {
    reject(r, epochs(), 0, "rejected", source, report);
    return;
  }
  ++report.admitted;
  ++report.class_admitted[qos::index(r.klass)];
  if (a.evicted.has_value()) {
    // The evicted request *was* admitted (its admission already
    // counted); overload policy now answers it dropped — that is a shed,
    // keeping arrivals == admitted + dropped intact.
    book_shed(*a.evicted, report);
    answer_dropped(*a.evicted, r.arrival, epochs(), 0, "evicted", source, report);
  }
}

void Server::final_drain(double now, RequestSource& source,
                         ServerReport& report) {
  while (!scheduler_.empty()) {
    handle_dispatch(scheduler_.dispatch_ready(std::max(now, device_free_),
                                              device_free_, epochs()),
                    source, report);
  }
  if (epoch_inflight()) epoch_commit(std::max(now, next_swap_time()), source, report);
  // Leftover updates at stream end: nothing is left to overlap with, so
  // every mode closes out with a quiesce-style final epoch.
  if (updates_pending()) run_quiesce(std::max(now, device_free_), source, report);
}

}  // namespace harmonia::serve
