// Property test for the add_flags()/from_cli() contract: every flag a
// config struct registers must be consumed by its from_cli(), and a
// parse with no arguments must reproduce the struct's defaults. A flag
// that parses but is never read is dead config — the CLI silently
// accepts it and the run silently ignores it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/cli.hpp"
#include "serve/options.hpp"
#include "tune/autotuner.hpp"

namespace harmonia {
namespace {

/// Asserts every declared flag landed in the consumption ledger.
void expect_all_consumed(const Cli& cli) {
  for (const std::string& name : cli.flag_names()) {
    EXPECT_TRUE(cli.queried().count(name) > 0)
        << "--" << name << " is declared by add_flags but never read by "
        << "from_cli: dead config";
  }
}

TEST(CliRoundTripTest, ServeOptionsConsumesEveryDeclaredFlag) {
  Cli cli;
  serve::ServeOptions::add_flags(cli);
  const char* argv[] = {"test"};
  ASSERT_TRUE(cli.parse(1, argv));
  (void)serve::ServeOptions::from_cli(cli);
  expect_all_consumed(cli);
}

TEST(CliRoundTripTest, AutotunerConfigConsumesEveryDeclaredFlag) {
  Cli cli;
  tune::AutotunerConfig::add_flags(cli);
  const char* argv[] = {"test"};
  ASSERT_TRUE(cli.parse(1, argv));
  (void)tune::AutotunerConfig::from_cli(cli);
  expect_all_consumed(cli);
}

TEST(CliRoundTripTest, ServeOptionsDefaultsSurviveTheRoundTrip) {
  Cli cli;
  serve::ServeOptions::add_flags(cli);
  const char* argv[] = {"test"};
  ASSERT_TRUE(cli.parse(1, argv));
  const serve::ServeOptions parsed = serve::ServeOptions::from_cli(cli);
  const serve::ServeOptions defaults;

  EXPECT_EQ(parsed.batch.max_batch, defaults.batch.max_batch);
  EXPECT_DOUBLE_EQ(parsed.batch.max_wait, defaults.batch.max_wait);
  EXPECT_EQ(parsed.batch.queue_capacity, defaults.batch.queue_capacity);
  EXPECT_EQ(parsed.epoch.max_buffered, defaults.epoch.max_buffered);
  EXPECT_EQ(parsed.epoch.mode, defaults.epoch.mode);
  EXPECT_EQ(parsed.epoch.apply_threads, defaults.epoch.apply_threads);
  EXPECT_EQ(parsed.batch.pipeline.query_options.group_size,
            defaults.batch.pipeline.query_options.group_size);
  EXPECT_EQ(parsed.batch.pipeline.query_options.psa_override_bits,
            defaults.batch.pipeline.query_options.psa_override_bits);
  EXPECT_EQ(parsed.replicas, defaults.replicas);
  EXPECT_EQ(parsed.qos.enabled, defaults.qos.enabled);
  EXPECT_EQ(parsed.persist.dir, defaults.persist.dir);
  EXPECT_EQ(parsed.persist.recover, defaults.persist.recover);
  // The tunable snapshot derived from both must agree too.
  EXPECT_TRUE(serve::Tunables::from(parsed) == serve::Tunables::from(defaults));
}

TEST(CliRoundTripTest, AutotunerDefaultsSurviveTheRoundTrip) {
  Cli cli;
  tune::AutotunerConfig::add_flags(cli);
  const char* argv[] = {"test"};
  ASSERT_TRUE(cli.parse(1, argv));
  const tune::AutotunerConfig parsed = tune::AutotunerConfig::from_cli(cli);
  const tune::AutotunerConfig defaults;

  EXPECT_EQ(parsed.tick_every, defaults.tick_every);
  EXPECT_EQ(parsed.cooldown_ticks, defaults.cooldown_ticks);
  EXPECT_DOUBLE_EQ(parsed.p99_band, defaults.p99_band);
  EXPECT_DOUBLE_EQ(parsed.slo_p99, defaults.slo_p99);
  EXPECT_DOUBLE_EQ(parsed.min_improvement, defaults.min_improvement);
  EXPECT_EQ(parsed.min_batch, defaults.min_batch);
  EXPECT_EQ(parsed.max_batch, defaults.max_batch);
  EXPECT_DOUBLE_EQ(parsed.min_wait, defaults.min_wait);
  EXPECT_DOUBLE_EQ(parsed.max_wait, defaults.max_wait);
}

TEST(CliRoundTripTest, TunablesFlagsReachTheTunablesSnapshot) {
  Cli cli;
  serve::ServeOptions::add_flags(cli);
  const char* argv[] = {"test", "--max-batch=512", "--max-wait-us=40",
                        "--group-size=8", "--sort-bits=12"};
  ASSERT_TRUE(cli.parse(5, argv));
  const serve::Tunables t =
      serve::Tunables::from(serve::ServeOptions::from_cli(cli));
  EXPECT_EQ(t.max_batch, 512u);
  EXPECT_DOUBLE_EQ(t.max_wait, 40e-6);
  EXPECT_EQ(t.group_size, 8u);
  EXPECT_EQ(t.sort_bits, 12u);
}

}  // namespace
}  // namespace harmonia
