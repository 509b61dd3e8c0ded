#include "tune/autotuner.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/expect.hpp"

namespace harmonia::tune {

namespace {

constexpr const char* kClasses[] = {"gold", "silver", "bronze"};
constexpr std::size_t kNumClasses = 3;

/// Largest profiled NTG group size the climber adopts: a full warp.
constexpr unsigned kMaxGroupSize = 32;
/// Largest profiled PSA sort-bit count the climber adopts: half the
/// 64-bit key width (Tunables::validate allows the whole width).
constexpr unsigned kMaxSortBits = 32;

std::string us(double seconds) {
  std::ostringstream os;
  os << seconds * 1e6 << "us";
  return os.str();
}

}  // namespace

void AutotunerConfig::validate() const {
  HARMONIA_CHECK_MSG(tick_every > 0.0, "tune: tick_every must be positive");
  HARMONIA_CHECK_MSG(p99_band >= 0.0, "tune: p99_band must be >= 0");
  HARMONIA_CHECK_MSG(slo_p99 >= 0.0, "tune: slo_p99 must be >= 0");
  HARMONIA_CHECK_MSG(min_improvement >= 0.0,
                     "tune: min_improvement must be >= 0");
  HARMONIA_CHECK_MSG(min_batch > 0 && min_batch <= max_batch,
                     "tune: need 0 < min_batch <= max_batch");
  HARMONIA_CHECK_MSG(min_wait > 0.0 && min_wait <= max_wait,
                     "tune: need 0 < min_wait <= max_wait");
}

void AutotunerConfig::add_flags(Cli& cli) {
  cli.flag("tune-tick-us", "autotuner cadence (virtual us between ticks)",
           "50")
      .flag("tune-cooldown", "quiet ticks after a kept or rolled-back move",
            "0")
      .flag("tune-p99-band",
            "tolerated fractional p99 regression on a kept move", "0.15")
      .flag("tune-slo-p99-us",
            "SLO veto: no trials while the window p99 exceeds this "
            "(us; 0 = off)",
            "0")
      .flag("tune-min-gain",
            "fractional throughput gain required to keep a move", "0.02")
      .flag("tune-min-batch", "lower bound for the batch-size climb", "64")
      .flag("tune-max-batch", "upper bound for the batch-size climb", "16384")
      .flag("tune-min-wait-us", "lower bound for the batch-deadline climb (us)",
            "25")
      .flag("tune-max-wait-us", "upper bound for the batch-deadline climb (us)",
            "2000");
}

AutotunerConfig AutotunerConfig::from_cli(const Cli& cli) {
  AutotunerConfig cfg;
  cfg.tick_every =
      static_cast<double>(cli.get_uint("tune-tick-us", 50)) * 1e-6;
  cfg.cooldown_ticks = static_cast<unsigned>(cli.get_uint("tune-cooldown", 0));
  cfg.p99_band = cli.get_double("tune-p99-band", 0.15);
  cfg.slo_p99 = static_cast<double>(cli.get_uint("tune-slo-p99-us", 0)) * 1e-6;
  cfg.min_improvement = cli.get_double("tune-min-gain", 0.02);
  cfg.min_batch = cli.get_uint("tune-min-batch", 64);
  cfg.max_batch = cli.get_uint("tune-max-batch", 16384);
  cfg.min_wait =
      static_cast<double>(cli.get_uint("tune-min-wait-us", 25)) * 1e-6;
  cfg.max_wait =
      static_cast<double>(cli.get_uint("tune-max-wait-us", 2000)) * 1e-6;
  return cfg;
}

Autotuner::Autotuner(const AutotunerConfig& config,
                     obs::MetricsRegistry& metrics)
    : config_(config), metrics_(metrics) {
  config_.validate();
  const auto edges = obs::LatencyHistogram::exponential_edges(1e-7, 1.0, 28);
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    const std::string labels =
        std::string{"{class=\""} + kClasses[c] + "\"}";
    completed_.push_back(
        &metrics_.counter("serve_class_completed_total" + labels));
    dropped_.push_back(
        &metrics_.counter("serve_class_dropped_total" + labels));
    latency_.push_back(
        &metrics_.histogram("serve_class_latency_seconds" + labels, edges));
  }
  // underflow + buckets + overflow per class.
  bucket_snap_.assign(kNumClasses * (latency_[0]->bucket_count() + 2), 0);
  next_tick_ = config_.tick_every;
}

Autotuner::Window Autotuner::measure(double now) {
  Window w;
  const std::size_t nb = latency_[0]->bucket_count();
  const std::size_t slots = nb + 2;
  // Combined per-slot window deltas across the class histograms: the
  // controller optimizes the whole stream, not one class.
  std::vector<std::uint64_t> delta(slots, 0);
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    const obs::LatencyHistogram& h = *latency_[c];
    const std::size_t base = c * slots;
    delta[0] += h.underflow() - bucket_snap_[base];
    for (std::size_t i = 0; i < nb; ++i)
      delta[1 + i] += h.bucket(i) - bucket_snap_[base + 1 + i];
    delta[slots - 1] += h.overflow() - bucket_snap_[base + slots - 1];
    w.completed += completed_[c]->value();
    w.dropped += dropped_[c]->value();
  }
  w.completed -= completed_snap_;
  w.dropped -= dropped_snap_;
  for (const std::uint64_t d : delta) total += d;

  const double window = now - last_tick_;
  w.throughput =
      window > 0.0 ? static_cast<double>(w.completed) / window : 0.0;

  if (total > 0) {
    // p99 interpolated within the bucket holding the 0.99 quantile of
    // this window's samples (+inf when it landed in overflow). Linear
    // interpolation — histogram_quantile style — keeps the estimate
    // continuous; raw bucket edges move in ~1.8x jumps, which would make
    // any fractional regression band meaningless.
    const std::uint64_t need = total - total / 100;
    std::uint64_t cum = delta[0];
    if (cum >= need) {
      w.p99 = latency_[0]->edge(0);
    } else {
      w.p99 = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < nb; ++i) {
        if (cum + delta[1 + i] >= need) {
          const double lo = latency_[0]->edge(i);
          const double hi = latency_[0]->edge(i + 1);
          const double frac = static_cast<double>(need - cum) /
                              static_cast<double>(delta[1 + i]);
          w.p99 = lo + frac * (hi - lo);
          break;
        }
        cum += delta[1 + i];
      }
    }
  }
  return w;
}

void Autotuner::snapshot() {
  const std::size_t nb = latency_[0]->bucket_count();
  const std::size_t slots = nb + 2;
  completed_snap_ = 0;
  dropped_snap_ = 0;
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    const obs::LatencyHistogram& h = *latency_[c];
    const std::size_t base = c * slots;
    bucket_snap_[base] = h.underflow();
    for (std::size_t i = 0; i < nb; ++i) bucket_snap_[base + 1 + i] = h.bucket(i);
    bucket_snap_[base + slots - 1] = h.overflow();
    completed_snap_ += completed_[c]->value();
    dropped_snap_ += dropped_[c]->value();
  }
}

void Autotuner::observe_profile(double now, unsigned group_size,
                                unsigned sort_bits) {
  (void)now;
  profiled_group_ = group_size;
  profiled_bits_ = sort_bits;
}

bool Autotuner::propose(const serve::Tunables& current, serve::Tunables& out,
                        std::string& note) {
  for (unsigned tried = 0; tried < kNumKnobs; ++tried) {
    const unsigned ki = knob_;
    const Knob k = static_cast<Knob>(ki);
    knob_ = (knob_ + 1) % kNumKnobs;
    int& dir = dir_[ki];
    out = current;
    std::ostringstream os;
    switch (k) {
      case Knob::kBatch: {
        std::size_t v = dir > 0 ? std::min(current.max_batch * 2,
                                           config_.max_batch)
                                : std::max(current.max_batch / 2,
                                           config_.min_batch);
        if (v == current.max_batch) {
          // Boundary: climb the other way instead of stalling there.
          dir = -dir;
          v = dir > 0 ? std::min(current.max_batch * 2, config_.max_batch)
                      : std::max(current.max_batch / 2, config_.min_batch);
        }
        if (v == current.max_batch) break;
        out.max_batch = v;
        os << "max_batch " << current.max_batch << " -> " << v;
        note = os.str();
        trial_knob_ = ki;
        return true;
      }
      case Knob::kWait: {
        double v = dir > 0 ? std::min(current.max_wait * 2.0, config_.max_wait)
                           : std::max(current.max_wait / 2.0, config_.min_wait);
        if (v == current.max_wait) {
          dir = -dir;
          v = dir > 0 ? std::min(current.max_wait * 2.0, config_.max_wait)
                      : std::max(current.max_wait / 2.0, config_.min_wait);
        }
        if (v == current.max_wait) break;
        out.max_wait = v;
        os << "max_wait " << us(current.max_wait) << " -> " << us(v);
        note = os.str();
        trial_knob_ = ki;
        return true;
      }
      case Knob::kGroup: {
        // Re-seed toward the swap-boundary re-profile rather than
        // stepping blind: the NTG model already solved Eq. 4 for the
        // committed tree.
        if (profiled_group_ == 0 || profiled_group_ > kMaxGroupSize ||
            profiled_group_ == current.group_size) {
          break;
        }
        out.group_size = profiled_group_;
        os << "group_size " << current.group_size << " -> " << profiled_group_
           << " (profile)";
        note = os.str();
        trial_knob_ = ki;
        return true;
      }
      case Knob::kBits: {
        if (profiled_bits_ == 0 || profiled_bits_ > kMaxSortBits ||
            profiled_bits_ == current.sort_bits) {
          break;
        }
        out.sort_bits = profiled_bits_;
        os << "sort_bits " << current.sort_bits << " -> " << profiled_bits_
           << " (profile)";
        note = os.str();
        trial_knob_ = ki;
        return true;
      }
    }
  }
  return false;
}

serve::TuneDecision Autotuner::tick(double now, const serve::Tunables& current) {
  const Window w = measure(now);
  snapshot();
  last_tick_ = now;
  while (next_tick_ <= now) next_tick_ += config_.tick_every;

  serve::TuneDecision d;  // kNone unless a transition fires below
  switch (state_) {
    case State::kWarmup:
      if (w.completed > 0) {
        baseline_ = w;
        state_ = State::kSteady;
      }
      return d;

    case State::kTrial: {
      if (w.completed == 0) return d;  // idle window proves nothing: extend
      const bool improved =
          w.throughput >=
          baseline_.throughput * (1.0 + config_.min_improvement);
      // Under admission drops the stream is saturated: completing more is
      // strictly better and queue-driven p99 is transient backlog, so the
      // latency band only gates moves while the server is keeping up.
      const bool p99_ok = w.dropped > 0 ||
                          w.p99 <= baseline_.p99 * (1.0 + config_.p99_band);
      state_ = State::kSteady;
      cooldown_left_ = config_.cooldown_ticks;
      if (improved && p99_ok) {
        baseline_ = w;  // the move stands; climb from here
        // Stay on the winning knob: rewind the round-robin cursor so the
        // next trial keeps climbing the same dimension until it stops
        // paying off, instead of touring the other knobs first.
        knob_ = trial_knob_;
        return d;
      }
      // One-step rollback to the exact pre-move snapshot; flip that
      // knob's climb direction so its next trial explores the other way.
      ++rollbacks_;
      dir_[trial_knob_] = -dir_[trial_knob_];
      d.action = serve::TuneAction::kRollback;
      d.target = pre_trial_;
      d.note =
          trial_note_ + (p99_ok ? " (no gain)" : " (p99 out of band)");
      return d;
    }

    case State::kSteady: {
      if (w.completed > 0) baseline_ = w;  // rolling pre-move baseline
      if (cooldown_left_ > 0) {
        --cooldown_left_;
        return d;
      }
      if (w.completed == 0) return d;  // nothing to judge a trial against
      if (config_.slo_p99 > 0.0 && w.p99 > config_.slo_p99) {
        // Guard rail: the stream is already past its SLO — experimenting
        // now could only dig deeper. Hold position and re-check later.
        ++vetoes_;
        cooldown_left_ = config_.cooldown_ticks;
        d.action = serve::TuneAction::kVeto;
        d.note = "p99 " + us(w.p99) + " over slo " + us(config_.slo_p99);
        return d;
      }
      serve::Tunables target;
      std::string note;
      if (!propose(current, target, note)) return d;
      pre_trial_ = current;
      trial_note_ = note;
      state_ = State::kTrial;
      ++moves_;
      d.action = serve::TuneAction::kApply;
      d.target = target;
      d.note = note;
      return d;
    }
  }
  return d;
}

}  // namespace harmonia::tune
