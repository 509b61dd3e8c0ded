// Closed-loop online autotuner for the serving stack (docs/serving.md
// #autotuner): a serve::TuneController that periodically reads the obs
// MetricsRegistry the backend is already exporting — per-class latency
// histograms and completion counters — and hill-climbs the runtime
// Tunables (batch size/deadline, NTG group size, PSA sort bits) one
// bounded step at a time.
//
// The control loop is a trial/evaluate state machine on the virtual
// clock:
//
//   steady  : after a cooldown, pick the next knob round-robin and
//             propose one bounded step (x2 / /2 for batch and wait;
//             group size and sort bits re-seed toward the values the
//             backend re-profiles at each epoch-swap boundary).
//   trial   : one window later, compare the trial window against the
//             pre-move baseline. Keep the move when throughput improved
//             by >= min_improvement and p99 stayed within p99_band;
//             otherwise roll back to the exact pre-move snapshot.
//
// Guard rails: every step is bounded (a move changes one knob by one
// step inside configured bounds); a cooldown separates moves so each
// trial is judged on its own window; an SLO veto refuses to experiment
// at all while the observed p99 is already past slo_p99; and a kept
// move can still be undone one step later — the backend stamps every
// applied / vetoed / rolled-back transition into metrics and the trace.
//
// Everything the controller reads is derived from the deterministic
// virtual-clock simulation, so the decision sequence itself is
// deterministic: same stream + same config => the same moves at the
// same instants (the CI replay gate diffs exactly that).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "obs/metrics.hpp"
#include "serve/tunables.hpp"

namespace harmonia::tune {

struct AutotunerConfig {
  /// Controller cadence on the virtual clock (seconds between ticks).
  /// Spelled as from_cli() computes --tune-tick-us=50, so the struct and
  /// the flag default are the same double.
  double tick_every = 50 * 1e-6;
  /// Quiet ticks after a kept or rolled-back move before the next trial.
  unsigned cooldown_ticks = 0;
  /// Tolerated p99 regression on a kept move, as a fraction of the
  /// baseline window's p99 (the rollback trigger).
  double p99_band = 0.15;
  /// SLO veto: refuse to start a trial while the observed window p99
  /// exceeds this (seconds). 0 disables the veto.
  double slo_p99 = 0.0;
  /// Minimum fractional throughput gain required to keep a move.
  double min_improvement = 0.02;

  // Bounds for the climb. The caller must keep max_batch within the
  // server's construction-time queue capacity — Tunables::validate
  // rejects a decision past it, and apply_tunables throws.
  std::size_t min_batch = 64;
  std::size_t max_batch = 1 << 14;
  double min_wait = 25e-6;
  double max_wait = 2e-3;

  void validate() const;
  static void add_flags(Cli& cli);
  static AutotunerConfig from_cli(const Cli& cli);
};

class Autotuner : public serve::TuneController {
 public:
  /// Reads the serving layer's per-class instruments out of `metrics` —
  /// the same registry passed to the backend via ServeOptions::obs (the
  /// handles register on first use, so construction order is free).
  Autotuner(const AutotunerConfig& config, obs::MetricsRegistry& metrics);

  double next_tick() const override { return next_tick_; }
  serve::TuneDecision tick(double now, const serve::Tunables& current) override;
  /// Swap-boundary re-profile feed from the backend: what a static
  /// profile of the freshly committed tree would pick. The climber
  /// re-seeds the image/PSA knobs toward these instead of stepping blind.
  void observe_profile(double now, unsigned group_size,
                       unsigned sort_bits) override;

  std::uint64_t moves() const { return moves_; }
  std::uint64_t vetoes() const { return vetoes_; }
  std::uint64_t rollbacks() const { return rollbacks_; }

 private:
  /// One measurement window: the delta of the cumulative instruments
  /// between two consecutive ticks.
  struct Window {
    std::uint64_t completed = 0;
    std::uint64_t dropped = 0;  // admission drops: the saturation signal
    double throughput = 0.0;    // completed / window seconds
    double p99 = 0.0;           // interpolated 0.99 quantile
  };

  enum class State : std::uint8_t { kWarmup, kSteady, kTrial };

  /// The climbable knobs, in round-robin order.
  enum class Knob : std::uint8_t { kBatch, kWait, kGroup, kBits };
  static constexpr unsigned kNumKnobs = 4;

  Window measure(double now);
  void snapshot();
  /// The next legal one-step move from `current`, cycling knobs_ from
  /// knob_; returns false when no knob can move.
  bool propose(const serve::Tunables& current, serve::Tunables& out,
               std::string& note);

  AutotunerConfig config_;
  obs::MetricsRegistry& metrics_;
  /// Per-class completion counters + latency histograms (gold, silver,
  /// bronze — single-class streams land in gold).
  std::vector<const obs::Counter*> completed_;
  std::vector<const obs::Counter*> dropped_;
  std::vector<const obs::LatencyHistogram*> latency_;

  double next_tick_ = 0.0;
  double last_tick_ = 0.0;
  /// Cumulative instrument snapshot at the previous tick.
  std::vector<std::uint64_t> bucket_snap_;
  std::uint64_t completed_snap_ = 0;
  std::uint64_t dropped_snap_ = 0;

  State state_ = State::kWarmup;
  unsigned knob_ = 0;          // next knob to try (round-robin index)
  int dir_[kNumKnobs] = {+1, +1, +1, +1};  // per-knob climb direction
  unsigned cooldown_left_ = 0;
  Window baseline_;
  serve::Tunables pre_trial_;  // exact rollback target
  unsigned trial_knob_ = 0;    // which knob the inflight trial moved
  std::string trial_note_;

  /// Latest swap-boundary re-profile (0 = none seen yet).
  unsigned profiled_group_ = 0;
  unsigned profiled_bits_ = 0;

  std::uint64_t moves_ = 0;
  std::uint64_t vetoes_ = 0;
  std::uint64_t rollbacks_ = 0;
};

}  // namespace harmonia::tune
