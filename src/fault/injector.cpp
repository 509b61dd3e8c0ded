#include "fault/injector.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "fault/checksum.hpp"

namespace harmonia::fault {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

std::string fmt_factor(double factor) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", factor);
  return buf;
}
}  // namespace

const char* FaultReport::csv_header() {
  return "slowdown_windows,dispatch_failures,corruptions,shards_lost,"
         "audits,checksum_mismatches,retries,retry_shed_batches,"
         "retry_shed_requests,reimages,"
         "degraded_points,degraded_ranges,degraded_shed,shards_restored,"
         "replicas_lost,replicas_rejoined,catchup_ops,catchup_us,"
         "backoff_us,reimage_us,degraded_us,fenced_us,"
         "retry_shed_gold,retry_shed_silver,retry_shed_bronze";
}

std::string FaultReport::csv_row() const {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
      "%llu,%llu,%llu,%.3f,%.3f,%.3f,%.3f,%.3f,%llu,%llu,%llu",
      static_cast<unsigned long long>(slowdown_windows),
      static_cast<unsigned long long>(dispatch_failures),
      static_cast<unsigned long long>(corruptions),
      static_cast<unsigned long long>(shards_lost),
      static_cast<unsigned long long>(audits),
      static_cast<unsigned long long>(checksum_mismatches),
      static_cast<unsigned long long>(retries),
      static_cast<unsigned long long>(retry_shed_batches),
      static_cast<unsigned long long>(retry_shed_requests),
      static_cast<unsigned long long>(reimages),
      static_cast<unsigned long long>(degraded_points),
      static_cast<unsigned long long>(degraded_ranges),
      static_cast<unsigned long long>(degraded_shed),
      static_cast<unsigned long long>(shards_restored),
      static_cast<unsigned long long>(replicas_lost),
      static_cast<unsigned long long>(replicas_rejoined),
      static_cast<unsigned long long>(catchup_ops), catchup_seconds * 1e6,
      backoff_seconds * 1e6, reimage_seconds * 1e6, degraded_seconds * 1e6,
      fenced_seconds * 1e6,
      static_cast<unsigned long long>(retry_shed_by_class[0]),
      static_cast<unsigned long long>(retry_shed_by_class[1]),
      static_cast<unsigned long long>(retry_shed_by_class[2]));
  return buf;
}

FaultInjector::FaultInjector(FaultPlan plan, const MitigationConfig& mitigation,
                             unsigned num_shards, unsigned num_replicas)
    : mitigation_(mitigation),
      num_shards_(num_shards),
      num_replicas_(num_replicas) {
  plan.validate();
  HARMONIA_CHECK(num_shards_ > 0);
  HARMONIA_CHECK(num_replicas_ > 0);
  HARMONIA_CHECK(mitigation_.retry.max_attempts > 0);
  events_.reserve(plan.events.size());
  for (const FaultEvent& e : plan.events) {
    HARMONIA_CHECK_MSG(e.shard < num_shards_,
                       "fault event targets shard " << e.shard << " but the run has "
                       << num_shards_ << " shard(s)");
    if (e.kind == FaultKind::kShardLost || e.kind == FaultKind::kReplicaLost) {
      HARMONIA_CHECK_MSG(e.replica < num_replicas_,
                         "fault event targets replica " << e.replica
                         << " but the run has " << num_replicas_
                         << " replica(s) per shard");
      HARMONIA_CHECK_MSG(
          e.kind != FaultKind::kReplicaLost || num_replicas_ > 1,
          "replica-lost event needs a replicated topology (replicas > 1); "
          "use 'lose' for unreplicated shards");
    }
    events_.push_back(
        {e, e.kind == FaultKind::kDispatchFailure ? e.count : 1u, false});
  }
}

void FaultInjector::set_observer(const obs::Observer& obs) {
  obs_ = obs;
  if (obs.metrics == nullptr) return;
  obs::MetricsRegistry& m = *obs.metrics;
  slowdowns_ = &m.counter("fault_slowdown_windows_total");
  failures_ = &m.counter("fault_dispatch_failures_total");
  corruptions_ = &m.counter("fault_corruptions_total");
  audits_ = &m.counter("fault_audits_total");
  mismatches_ = &m.counter("fault_checksum_mismatches_total");
  reimages_ = &m.counter("fault_reimages_total");
  losses_ = &m.counter("fault_shards_lost_total");
  replica_losses_ = &m.counter("fault_replicas_lost_total");
}

void FaultInjector::note_event(obs::Counter* counter, double at, unsigned shard,
                               std::string note) {
  if (counter != nullptr) counter->inc();
  if (obs_.trace != nullptr) obs_.trace->annotate(at, shard, std::move(note));
}

double FaultInjector::transfer_factor(unsigned shard, double now) {
  double factor = 1.0;
  for (State& s : events_) {
    if (s.ev.kind != FaultKind::kTransferSlowdown || s.ev.shard != shard) continue;
    if (now < s.ev.at || now >= s.ev.at + s.ev.duration) continue;
    factor *= s.ev.factor;
    if (!s.counted) {
      s.counted = true;
      ++report_.slowdown_windows;
      if (obs_.active()) {
        note_event(slowdowns_, now, shard,
                   "fault slowdown factor=" + fmt_factor(s.ev.factor));
      }
    }
  }
  return factor;
}

bool FaultInjector::take_dispatch_failure(unsigned shard, double now) {
  for (State& s : events_) {
    if (s.ev.kind != FaultKind::kDispatchFailure || s.ev.shard != shard) continue;
    if (s.ev.at > now || s.remaining == 0) continue;
    --s.remaining;
    ++report_.dispatch_failures;
    if (obs_.active()) note_event(failures_, now, shard, "fault dispatch failure");
    return true;
  }
  return false;
}

bool FaultInjector::maybe_corrupt_resync(unsigned shard, HarmoniaIndex& index,
                                         double now) {
  for (std::size_t i = 0; i < events_.size(); ++i) {
    State& s = events_[i];
    if (s.ev.kind != FaultKind::kResyncCorruption || s.ev.shard != shard) continue;
    if (s.ev.at > now || s.remaining == 0) continue;
    s.remaining = 0;
    ++report_.corruptions;
    if (obs_.active()) {
      note_event(corruptions_, now, shard,
                 "fault resync corruption bytes=" + std::to_string(s.ev.bytes));
    }

    // Deterministic damage: byte positions and flip masks come from a
    // SplitMix64 stream seeded by the event's plan position, never from
    // run state — replays corrupt the same bytes.
    SplitMix64 sm(0x8badf00dULL ^ (static_cast<std::uint64_t>(i) << 20) ^ shard);
    auto& mem = index.device().memory();
    const auto& img = index.image();
    const TreeView regions = index.committed();
    for (unsigned b = 0; b < s.ev.bytes; ++b) {
      const std::uint64_t pick = sm.next();
      std::uint64_t addr = 0;
      switch (pick % 3) {
        case 0:
          addr = img.key_region.addr + sm.next() % regions.keys.size_bytes();
          break;
        case 1: {
          // Route through ps_addr so the flip lands where the kernel (and
          // the audit) actually reads: const segment for top nodes.
          const std::uint32_t node =
              static_cast<std::uint32_t>(sm.next() % regions.prefix_sum.size());
          addr = img.ps_addr(node) + sm.next() % sizeof(std::uint32_t);
          break;
        }
        default:
          if (regions.values.empty()) {
            addr = img.key_region.addr + sm.next() % regions.keys.size_bytes();
          } else {
            addr = img.value_region.addr + sm.next() % regions.values.size_bytes();
          }
          break;
      }
      std::uint8_t byte = 0;
      mem.read_bytes(addr, &byte, 1);
      byte ^= static_cast<std::uint8_t>(1 + sm.next() % 255);
      mem.write_bytes(addr, &byte, 1);
    }
    return true;
  }
  return false;
}

double FaultInjector::audit_and_repair(unsigned shard, HarmoniaIndex& index,
                                       const TransferModel& link, double now) {
  ++report_.audits;
  if (audits_ != nullptr) audits_->inc();
  if (verify_image(index)) return 0.0;
  ++report_.checksum_mismatches;
  ++report_.reimages;
  index.resync_device();
  HARMONIA_CHECK_MSG(verify_image(index), "device image corrupt after re-image");
  const double seconds = image_resync_seconds(index.committed(), link);
  report_.reimage_seconds += seconds;
  if (obs_.active()) {
    if (mismatches_ != nullptr) mismatches_->inc();
    note_event(reimages_, now, shard, "checksum mismatch: re-imaged device");
  }
  return seconds;
}

double FaultInjector::audit_staged(unsigned shard, double upload_seconds,
                                   double now) {
  ++report_.audits;
  if (audits_ != nullptr) audits_->inc();
  for (State& s : events_) {
    if (s.ev.kind != FaultKind::kResyncCorruption || s.ev.shard != shard) continue;
    if (s.ev.at > now || s.remaining == 0) continue;
    s.remaining = 0;
    ++report_.corruptions;
    ++report_.checksum_mismatches;
    ++report_.reimages;
    report_.reimage_seconds += upload_seconds;
    if (obs_.active()) {
      note_event(corruptions_, now, shard,
                 "fault staged-image corruption bytes=" + std::to_string(s.ev.bytes));
      if (mismatches_ != nullptr) mismatches_->inc();
      note_event(reimages_, now, shard,
                 "staged audit mismatch: re-uploading, old image keeps serving");
    }
    return upload_seconds;
  }
  return 0.0;
}

std::optional<FaultEvent> FaultInjector::take_shard_lost(double now) {
  for (State& s : events_) {
    if (s.ev.kind != FaultKind::kShardLost &&
        s.ev.kind != FaultKind::kReplicaLost)
      continue;
    if (s.remaining == 0 || s.ev.at > now) continue;
    s.remaining = 0;
    return s.ev;
  }
  return std::nullopt;
}

void FaultInjector::book_loss(const FaultEvent& ev, bool fenced, double now) {
  if (fenced) {
    ++report_.shards_lost;
    if (obs_.active()) note_event(losses_, now, ev.shard, "shard lost");
  } else {
    ++report_.replicas_lost;
    if (obs_.active())
      note_event(replica_losses_, now, ev.shard,
                 "replica lost slot=" + std::to_string(ev.replica));
  }
}

double FaultInjector::next_shard_lost_time() const {
  double t = kInf;
  for (const State& s : events_) {
    if (s.ev.kind != FaultKind::kShardLost &&
        s.ev.kind != FaultKind::kReplicaLost)
      continue;
    if (s.remaining == 0) continue;
    t = std::min(t, s.ev.at);
  }
  return t;
}

}  // namespace harmonia::fault
