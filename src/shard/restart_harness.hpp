// Crash-restart harness: the only consumer of `restart` fault events.
//
// A backend cannot restart itself — the process dies under it — so the
// harness sits one level above ServingStack and models the whole cycle:
//
//   1. serve the stream up to the crash instant on a live stack whose
//      durability domain drops every durable write at/after the crash;
//   2. seal the crash: tear the configured bytes off the victim shard's
//      last surviving durable write (a torn log append or a half-written
//      snapshot image — whichever was in flight);
//   3. cold-start a fresh stack from the same directories
//      (ServingStack's recover path: newest-valid snapshot + overlay
//      fold + log replay + checkpoint, which leaves each directory
//      holding only the epoch-0 image and an empty log) and charge the
//      modeled recovery seconds plus the event's down time;
//   4. resume the stream — arrivals that landed while the process was
//      down are admitted the instant it comes back — and record the
//      recovered generation's time-to-first-reply.
//
// Multiple restart events chain: each generation serves its slice of
// the stream and the next recovers from whatever the crash left behind.
// Crashes land only on serving writes; recovery itself never crashes.
// Everything runs on the shared absolute virtual clock, so a
// (stream, topology, plan) triple replays bit-identically.
#pragma once

#include <span>
#include <vector>

#include "fault/fault_plan.hpp"
#include "persist/recovery.hpp"
#include "serve/report.hpp"
#include "serve/options.hpp"
#include "shard/backend_factory.hpp"

namespace harmonia::shard {

/// One crash→recover→resume cycle (one `restart` event).
struct RestartCycle {
  /// The restart event this cycle models.
  fault::FaultEvent event;
  double crash_time = 0.0;     // event.at: last instant writes survived
  double down_seconds = 0.0;   // event.duration: process-dead window
  /// Modeled cold-start cost: max over shards (they recover in
  /// parallel, one thread per shard directory).
  double recovery_seconds = 0.0;
  /// crash_time + down_seconds + recovery_seconds: first instant the
  /// recovered generation admits a request.
  double resume_time = 0.0;
  /// Completion of the recovered generation's first non-dropped reply
  /// (+inf when it answered nothing).
  double first_reply = 0.0;
  /// Per-shard recovery reports of the generation that followed.
  std::vector<persist::RecoveryReport> recoveries;

  /// The headline metric: crash to first successful reply.
  double ttfr_seconds() const { return first_reply - crash_time; }
};

struct RestartReport {
  /// One serving report per generation (restarts + 1).
  std::vector<serve::ServerReport> segments;
  /// One cycle per restart event, in time order.
  std::vector<RestartCycle> cycles;
};

/// Runs `stream` (arrival-sorted) through the topology, tearing the
/// process down at every `restart` event in options.faults and
/// recovering from options.persist.dir. Requires persistence enabled
/// and at least one restart event; non-restart fault events ride along
/// in whichever generation's window they fall.
RestartReport run_with_restarts(const TopologySpec& topo,
                                const serve::ServeOptions& options,
                                std::span<const serve::Request> stream);

}  // namespace harmonia::shard
