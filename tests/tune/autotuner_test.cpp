// Unit + integration tests of the closed-loop autotuner (src/tune/) and
// the runtime-Tunables contract it drives through shard::ShardedServer.
//
// The unit half feeds the controller hand-rolled metric windows and
// checks the control-loop guard rails one by one: warmup, bounded step,
// keep-on-gain, one-step rollback, p99 band, SLO veto, cooldown, and
// bit-identical decision replay. The integration half runs a real
// one-device ShardedServer under a saturating stream and asserts the API
// redesign's observable contract: tune decisions land in the metrics
// counters and the trace, and the image/PSA knobs never change off an
// epoch-swap boundary (a scripted controller samples
// effective_query_knobs() between its own ticks to prove the latch).
#include "tune/autotuner.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "queries/workload.hpp"
#include "serve/workload.hpp"
#include "shard/sharded_server.hpp"

namespace harmonia::tune {
namespace {

// ---------------------------------------------------------------- unit

/// Drives an Autotuner through scripted metric windows: each step feeds
/// `n` completions at a fixed latency, then ticks the controller.
struct Loop {
  explicit Loop(const AutotunerConfig& cfg)
      : tuner(cfg, metrics),
        completed(metrics.counter("serve_class_completed_total{class=\"gold\"}")),
        latency(metrics.histogram(
            "serve_class_latency_seconds{class=\"gold\"}",
            obs::LatencyHistogram::exponential_edges(1e-7, 1.0, 28))) {}

  serve::TuneDecision step(double now, std::uint64_t n, double lat_seconds,
                           std::uint64_t drops = 0) {
    completed.inc(n);
    for (std::uint64_t i = 0; i < n; ++i) latency.observe(lat_seconds);
    if (drops > 0)
      metrics.counter("serve_class_dropped_total{class=\"gold\"}").inc(drops);
    return tuner.tick(now, current);
  }

  obs::MetricsRegistry metrics;
  Autotuner tuner;
  obs::Counter& completed;
  obs::LatencyHistogram& latency;
  serve::Tunables current{.max_batch = 256, .max_wait = 50e-6};
};

AutotunerConfig fast_config() {
  AutotunerConfig cfg;
  cfg.tick_every = 1e-3;
  cfg.cooldown_ticks = 0;
  return cfg;
}

TEST(AutotunerTest, WarmupThenOneBoundedStep) {
  Loop loop(fast_config());

  // Tick 1 is warmup: it only establishes the baseline window.
  auto d = loop.step(1e-3, 1000, 50e-6);
  EXPECT_EQ(d.action, serve::TuneAction::kNone);
  EXPECT_EQ(loop.tuner.moves(), 0u);

  // Tick 2 proposes exactly one knob moved exactly one step.
  d = loop.step(2e-3, 1000, 50e-6);
  ASSERT_EQ(d.action, serve::TuneAction::kApply);
  EXPECT_EQ(d.target.max_batch, 512u) << "one doubling, not a jump";
  EXPECT_DOUBLE_EQ(d.target.max_wait, loop.current.max_wait);
  EXPECT_EQ(d.target.group_size, loop.current.group_size);
  EXPECT_EQ(d.target.sort_bits, loop.current.sort_bits);
  EXPECT_NE(d.note.find("max_batch"), std::string::npos);
}

TEST(AutotunerTest, KeptMoveKeepsClimbingTheSameKnob) {
  Loop loop(fast_config());
  loop.step(1e-3, 1000, 50e-6);                       // warmup
  auto d = loop.step(2e-3, 1000, 50e-6);              // propose 256 -> 512
  ASSERT_EQ(d.action, serve::TuneAction::kApply);
  loop.current = d.target;

  // The trial window doubles throughput: the move is kept (silent tick).
  d = loop.step(3e-3, 2000, 50e-6);
  EXPECT_EQ(d.action, serve::TuneAction::kNone);
  EXPECT_EQ(loop.tuner.rollbacks(), 0u);

  // The next proposal climbs the SAME knob further instead of touring.
  d = loop.step(4e-3, 2000, 50e-6);
  ASSERT_EQ(d.action, serve::TuneAction::kApply);
  EXPECT_EQ(d.target.max_batch, 1024u);
}

TEST(AutotunerTest, NoGainRollsBackToExactPreTrialSnapshot) {
  Loop loop(fast_config());
  loop.step(1e-3, 1000, 50e-6);
  auto d = loop.step(2e-3, 1000, 50e-6);
  ASSERT_EQ(d.action, serve::TuneAction::kApply);
  const serve::Tunables before = loop.current;
  loop.current = d.target;

  // Same throughput in the trial window -> no gain -> one-step rollback.
  d = loop.step(3e-3, 1000, 50e-6);
  ASSERT_EQ(d.action, serve::TuneAction::kRollback);
  EXPECT_TRUE(d.target == before) << "rollback must restore the exact "
                                  << "pre-trial snapshot";
  EXPECT_NE(d.note.find("no gain"), std::string::npos);
  EXPECT_EQ(loop.tuner.rollbacks(), 1u);
}

TEST(AutotunerTest, P99RegressionOutsideBandRollsBack) {
  Loop loop(fast_config());
  loop.step(1e-3, 1000, 50e-6);
  auto d = loop.step(2e-3, 1000, 50e-6);
  ASSERT_EQ(d.action, serve::TuneAction::kApply);
  const serve::Tunables before = loop.current;
  loop.current = d.target;

  // Throughput improves 50% but p99 quadruples with zero drops: the
  // latency guard rail wins.
  d = loop.step(3e-3, 1500, 200e-6);
  ASSERT_EQ(d.action, serve::TuneAction::kRollback);
  EXPECT_TRUE(d.target == before);
  EXPECT_NE(d.note.find("p99 out of band"), std::string::npos);
}

TEST(AutotunerTest, DropsWaiveTheP99BandWhileSaturated) {
  Loop loop(fast_config());
  loop.step(1e-3, 1000, 50e-6);
  auto d = loop.step(2e-3, 1000, 50e-6);
  ASSERT_EQ(d.action, serve::TuneAction::kApply);
  loop.current = d.target;

  // Same regressed p99, but the window also dropped requests: the stream
  // is saturated, so completing 50% more is kept regardless of latency.
  d = loop.step(3e-3, 1500, 200e-6, /*drops=*/400);
  EXPECT_EQ(d.action, serve::TuneAction::kNone);
  EXPECT_EQ(loop.tuner.rollbacks(), 0u);
}

TEST(AutotunerTest, SloVetoBlocksTrialsEntirely) {
  AutotunerConfig cfg = fast_config();
  cfg.slo_p99 = 100e-6;
  Loop loop(cfg);
  loop.step(1e-3, 1000, 300e-6);  // warmup, already past the SLO

  auto d = loop.step(2e-3, 1000, 300e-6);
  ASSERT_EQ(d.action, serve::TuneAction::kVeto);
  EXPECT_EQ(loop.tuner.moves(), 0u) << "a vetoed tick must not experiment";
  EXPECT_EQ(loop.tuner.vetoes(), 1u);
  EXPECT_NE(d.note.find("slo"), std::string::npos);
}

TEST(AutotunerTest, CooldownSpacesTrials) {
  AutotunerConfig cfg = fast_config();
  cfg.cooldown_ticks = 2;
  Loop loop(cfg);
  loop.step(1e-3, 1000, 50e-6);                       // warmup
  auto d = loop.step(2e-3, 1000, 50e-6);              // trial 1 proposed
  ASSERT_EQ(d.action, serve::TuneAction::kApply);
  loop.current = d.target;
  d = loop.step(3e-3, 1000, 50e-6);                   // judged: rollback
  ASSERT_EQ(d.action, serve::TuneAction::kRollback);
  loop.current = d.target;

  // Two quiet cooldown ticks before the next experiment.
  EXPECT_EQ(loop.step(4e-3, 1000, 50e-6).action, serve::TuneAction::kNone);
  EXPECT_EQ(loop.step(5e-3, 1000, 50e-6).action, serve::TuneAction::kNone);
  EXPECT_EQ(loop.step(6e-3, 1000, 50e-6).action, serve::TuneAction::kApply);
}

TEST(AutotunerTest, IdenticalInputsReplayIdenticalDecisions) {
  // The controller reads only its config and the metric windows, so two
  // instances fed the same script must produce byte-identical decisions
  // (the determinism the CI replay gate relies on).
  const std::vector<std::tuple<std::uint64_t, double, std::uint64_t>> script = {
      {1000, 50e-6, 0}, {1000, 50e-6, 0},  {2000, 50e-6, 0},
      {2000, 60e-6, 0}, {1500, 200e-6, 0}, {1500, 200e-6, 300},
      {800, 40e-6, 0},  {2500, 45e-6, 0},  {2500, 45e-6, 0},
  };
  auto run = [&] {
    Loop loop(fast_config());
    std::vector<std::string> decisions;
    double now = 0.0;
    for (const auto& [n, lat, drops] : script) {
      now += 1e-3;
      const auto d = loop.tuner.next_tick();
      const auto dec = loop.step(now, n, lat, drops);
      if (dec.action == serve::TuneAction::kApply ||
          dec.action == serve::TuneAction::kRollback) {
        loop.current = dec.target;
      }
      decisions.push_back(std::to_string(d) + "|" +
                          serve::to_string(dec.action) + "|" +
                          serve::to_string(dec.target) + "|" + dec.note);
    }
    return decisions;
  };
  EXPECT_EQ(run(), run());
}

TEST(AutotunerTest, ProfileFeedbackSeedsImageKnobs) {
  Loop loop(fast_config());
  loop.tuner.observe_profile(0.0, /*group_size=*/8, /*sort_bits=*/12);
  loop.step(1e-3, 1000, 50e-6);  // warmup

  // Walk proposals until the group-size knob comes up: it must re-seed
  // to the profiled value, not step blindly.
  bool saw_group = false, saw_bits = false;
  for (int i = 2; i < 20 && !(saw_group && saw_bits); ++i) {
    const auto d = loop.step(i * 1e-3, 1000, 50e-6);
    if (d.action != serve::TuneAction::kApply) continue;
    if (d.target.group_size != loop.current.group_size) {
      EXPECT_EQ(d.target.group_size, 8u);
      saw_group = true;
    }
    if (d.target.sort_bits != loop.current.sort_bits) {
      EXPECT_EQ(d.target.sort_bits, 12u);
      saw_bits = true;
    }
    loop.current = d.target;  // keep everything: feed rising throughput
    loop.completed.inc(0);
  }
  EXPECT_TRUE(saw_group);
  EXPECT_TRUE(saw_bits);
}

// --------------------------------------------------------- integration

gpusim::DeviceSpec test_spec() {
  auto spec = gpusim::titan_v();
  spec.num_sms = 8;
  spec.global_mem_bytes = 512 << 20;
  return spec;
}

struct ServerFixture {
  explicit ServerFixture(std::uint64_t tree_keys = 1 << 12)
      : keys(queries::make_tree_keys(tree_keys, 1)), index([&] {
          std::vector<btree::Entry> entries;
          for (Key k : keys) entries.push_back({k, btree::value_for_key(k)});
          return HarmoniaIndex::build(dev, entries, {.fanout = 16});
        }()) {}

  gpusim::Device dev{test_spec()};
  std::vector<Key> keys;
  HarmoniaIndex index;
};

serve::OpenLoopSpec saturating_spec(std::uint64_t count) {
  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 30e6;
  spec.count = count;
  spec.update_fraction = 0.05;
  spec.seed = 7;
  return spec;
}

TEST(AutotunerServingTest, DecisionsLandInMetricsAndTrace) {
  ServerFixture f;
  obs::MetricsRegistry metrics;
  obs::TraceRecorder trace;

  AutotunerConfig cfg;
  cfg.tick_every = 50e-6;
  cfg.cooldown_ticks = 0;
  Autotuner tuner(cfg, metrics);

  serve::ServeOptions opts;
  opts.batch.max_batch = 128;
  opts.batch.max_wait = 50e-6;
  opts.batch.queue_capacity = 4096;
  opts.epoch.max_buffered = 512;
  opts.epoch.mode = serve::EpochMode::kOverlap;
  opts.obs = {&metrics, &trace};
  opts.tuner = &tuner;

  shard::ShardedServer server(f.index, opts);
  const auto rep = server.run(make_open_loop(f.keys, saturating_spec(30000)));
  rep.check_invariants();

  // The tuner escaped the deliberately tiny starting batch.
  EXPECT_GT(server.tunables().max_batch, 128u);
  ASSERT_GT(tuner.moves(), 0u);

  // Every decision is double-booked: counters and trace annotations.
  const std::uint64_t applied =
      metrics.counter("serve_tune_applied_total").value();
  const std::uint64_t rolled =
      metrics.counter("serve_tune_rolled_back_total").value();
  EXPECT_EQ(applied, tuner.moves());
  EXPECT_EQ(rolled, tuner.rollbacks());
  std::uint64_t traced_applied = 0, traced_rolled = 0;
  for (const auto& e : trace.events()) {
    if (e.note.rfind("tune applied", 0) == 0) ++traced_applied;
    if (e.note.rfind("tune rolled-back", 0) == 0) ++traced_rolled;
  }
  EXPECT_EQ(traced_applied, applied);
  EXPECT_EQ(traced_rolled, rolled);
}

/// A scripted controller that applies one group-size change mid-run and
/// then samples the backend's live dispatch knobs at every tick, plus at
/// every swap boundary via observe_profile (the backend calls it right
/// after installing any latched snapshot).
class LatchProbe : public serve::TuneController {
 public:
  LatchProbe(double tick_every, double apply_after)
      : tick_every_(tick_every), apply_after_(apply_after) {}

  void attach(const shard::ShardedServer* backend) { backend_ = backend; }

  double next_tick() const override { return next_; }

  serve::TuneDecision tick(double now, const serve::Tunables& current) override {
    while (next_ <= now) next_ += tick_every_;
    tick_samples_.push_back({now, backend_->effective_query_knobs().first});
    serve::TuneDecision d;
    if (apply_at_ < 0.0 && now >= apply_after_) {
      apply_at_ = now;
      d.action = serve::TuneAction::kApply;
      d.target = current;
      d.target.group_size = 16;
      d.note = "probe group_size -> 16";
    }
    return d;
  }

  void observe_profile(double now, unsigned, unsigned) override {
    boundary_samples_.push_back({now, backend_->effective_query_knobs().first});
  }

  double tick_every_;
  double apply_after_;
  double next_ = 0.0;
  double apply_at_ = -1.0;
  const shard::ShardedServer* backend_ = nullptr;
  std::vector<std::pair<double, unsigned>> tick_samples_;
  std::vector<std::pair<double, unsigned>> boundary_samples_;
};

// Acceptance: apply_tunables never changes the image/PSA knobs off an
// epoch-swap boundary. Epoch builds are stretched so the scripted apply
// provably lands while a staged epoch is in flight, then the probe's own
// ticks observe the old group size until the swap installs the latch.
TEST(AutotunerServingTest, ImageKnobsOnlyChangeAtSwapBoundaries) {
  ServerFixture f;

  serve::ServeOptions opts;
  opts.batch.max_batch = 256;
  opts.batch.max_wait = 50e-6;
  opts.batch.queue_capacity = 8192;
  opts.epoch.mode = serve::EpochMode::kOverlap;
  opts.epoch.max_buffered = 64;
  opts.epoch.seconds_per_op = 2e-5;  // ~1.3ms builds: epochs stay inflight

  LatchProbe probe(/*tick_every=*/50e-6, /*apply_after=*/1e-3);
  opts.tuner = &probe;

  shard::ShardedServer server(f.index, opts);
  probe.attach(&server);

  serve::OpenLoopSpec spec = saturating_spec(40000);
  spec.arrivals_per_second = 10e6;
  spec.update_fraction = 0.10;  // steady update flow keeps epochs staged
  const auto rep = server.run(make_open_loop(f.keys, spec));
  rep.check_invariants();

  ASSERT_GE(probe.apply_at_, 0.0) << "the probe never got to apply";
  EXPECT_EQ(server.tunables().group_size, 16u);
  EXPECT_EQ(server.effective_query_knobs().first, 16u)
      << "the latched snapshot must eventually install";

  // The first boundary at/after the apply is where the knob may first
  // change; every probe tick strictly before it must still see the old
  // value, no matter that tunables() already reports the new one.
  double first_boundary = -1.0;
  for (const auto& [at, group] : probe.boundary_samples_) {
    if (at >= probe.apply_at_) {
      first_boundary = at;
      break;
    }
  }
  ASSERT_GE(first_boundary, 0.0) << "no swap boundary after the apply";

  bool saw_latched_window = false;
  for (const auto& [at, group] : probe.tick_samples_) {
    if (at <= probe.apply_at_ || at >= first_boundary) continue;
    EXPECT_EQ(group, 0u) << "image knob changed off a swap boundary at t="
                         << at;
    saw_latched_window = true;
  }
  EXPECT_TRUE(saw_latched_window)
      << "no tick landed between apply and swap: the latch was not "
      << "exercised — stretch the epoch build or speed up the ticks";

  // And at every boundary on/after the install, dispatches use the new
  // value (observe_profile runs right after the latch installs).
  for (const auto& [at, group] : probe.boundary_samples_) {
    if (at >= first_boundary) {
      EXPECT_EQ(group, 16u);
    }
  }
}

}  // namespace
}  // namespace harmonia::tune
