// The documented metric inventory (docs/observability.md#metric-inventory)
// is checked against the code: a few ServingStack configurations that
// between them exercise every subsystem (QoS, faults with replica groups,
// hot-range splitting, delta epochs with persistence, the autotuner)
// register their metrics, and every family any of them registers must be
// named in the inventory — so the docs cannot drift from the code.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "serve/workload.hpp"
#include "shard/backend_factory.hpp"
#include "test_dir.hpp"
#include "tune/autotuner.hpp"

namespace harmonia {
namespace {

/// Family names of a Prometheus dump (its `# TYPE <family> <kind>` lines).
std::set<std::string> registered_families(const obs::MetricsRegistry& metrics) {
  std::set<std::string> out;
  std::istringstream in(metrics.prometheus_text());
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    const std::string rest = line.substr(7);
    out.insert(rest.substr(0, rest.find(' ')));
  }
  return out;
}

/// Adds the metric names a backticked inventory token spells: a brace
/// group followed by more name characters is an alternation
/// (`a_{x,y}_b` -> a_x_b, a_y_b), a trailing one is the label set.
void expand_token(const std::string& token, std::set<std::string>& out) {
  const std::size_t open = token.find('{');
  if (open == std::string::npos) {
    out.insert(token);
    return;
  }
  const std::size_t close = token.find('}', open);
  if (close == std::string::npos) return;
  if (close + 1 == token.size()) {
    if (open > 0) out.insert(token.substr(0, open));
    return;
  }
  const std::string head = token.substr(0, open);
  const std::string tail = token.substr(close + 1);
  std::istringstream alts(token.substr(open + 1, close - open - 1));
  for (std::string alt; std::getline(alts, alt, ',');)
    expand_token(head + alt + tail, out);
}

/// Every name the `## Metric inventory` section of the docs mentions.
std::set<std::string> documented_names() {
  std::ifstream in(std::string{HARMONIA_DOCS_DIR} + "/observability.md");
  EXPECT_TRUE(in.good()) << "cannot read docs/observability.md";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();
  const std::size_t begin = doc.find("## Metric inventory");
  EXPECT_NE(begin, std::string::npos) << "no metric inventory section";
  if (begin == std::string::npos) return {};
  const std::size_t end = doc.find("\n## ", begin + 1);
  const std::string section = doc.substr(begin, end - begin);
  std::set<std::string> out;
  for (std::size_t i = section.find('`'); i != std::string::npos;) {
    const std::size_t j = section.find('`', i + 1);
    if (j == std::string::npos) break;
    expand_token(section.substr(i + 1, j - i - 1), out);
    i = section.find('`', j + 1);
  }
  return out;
}

gpusim::DeviceSpec test_spec() {
  auto spec = gpusim::titan_v();
  spec.num_sms = 8;
  spec.global_mem_bytes = 256 << 20;
  return spec;
}

shard::TopologySpec topology(unsigned shards) {
  shard::TopologySpec topo;
  topo.log2_keys = 12;
  topo.fanout = 16;
  topo.shards = shards;
  topo.device = test_spec();
  topo.device_global_bytes = 256 << 20;
  return topo;
}

serve::ServeOptions base_options() {
  serve::ServeOptions cfg;
  cfg.batch.max_batch = 128;
  cfg.batch.max_wait = 80e-6;
  cfg.batch.queue_capacity = 2048;
  cfg.epoch.max_buffered = 128;
  return cfg;
}

serve::OpenLoopSpec base_stream() {
  serve::OpenLoopSpec spec;
  spec.arrivals_per_second = 5e6;
  spec.count = 6000;
  spec.update_fraction = 0.1;
  spec.range_fraction = 0.05;
  spec.seed = 3;
  return spec;
}

/// Serves `spec` through a fresh stack and returns what it registered.
std::set<std::string> families_of(unsigned shards, serve::ServeOptions cfg,
                                  const serve::OpenLoopSpec& spec,
                                  obs::MetricsRegistry& metrics) {
  cfg.obs = {&metrics, nullptr};
  shard::ServingStack stack(topology(shards), cfg);
  stack.backend().run(serve::make_open_loop(stack.keys(), spec));
  return registered_families(metrics);
}

TEST(MetricInventory, EveryRegisteredFamilyIsDocumented) {
  std::set<std::string> registered;
  const auto add = [&](const std::set<std::string>& f) {
    registered.insert(f.begin(), f.end());
  };

  {  // Multi-tenant QoS: weighted lanes, eviction, throttling, scans.
    serve::ServeOptions cfg = base_options();
    cfg.qos.enabled = true;
    cfg.qos.classes[0].weight = 8.0;
    cfg.qos.classes[1].weight = 3.0;
    cfg.qos.tenant_rate = 600000;
    serve::OpenLoopSpec spec = base_stream();
    spec.scan_fraction = 0.1;
    spec.tenants = 6;
    obs::MetricsRegistry metrics;
    add(families_of(2, cfg, spec, metrics));
  }
  {  // Faults on replica groups: every fault kind, a failover, a fence
     // (both replicas of shard 0 down) with its restore, and rejoins.
    serve::ServeOptions cfg = base_options();
    cfg.replicas = 2;
    cfg.faults = fault::FaultPlan::parse(
        "slow@0.0001:shard=1,factor=6,duration=0.0005;"
        "fail@0:shard=0,count=2;corrupt@0:shard=1,bytes=8;"
        "replica-lost@0.0002:shard=0,replica=0,repair=0.0006;"
        "replica-lost@0.0003:shard=0,replica=1,repair=0.0003;"
        "lose@0.0004:shard=1,repair=0.0003");
    obs::MetricsRegistry metrics;
    add(families_of(2, cfg, base_stream(), metrics));
  }
  {  // Hot-range splitting: a zipfian stream commits a live migration.
    serve::ServeOptions cfg = base_options();
    cfg.epoch.max_buffered = 512;
    cfg.reshard.split_hot = true;
    cfg.reshard.hot_factor = 1.3;
    cfg.reshard.min_window_queries = 64;
    cfg.reshard.detect_every = 200e-6;
    serve::OpenLoopSpec spec = base_stream();
    spec.update_fraction = 0.05;
    spec.dist = queries::Distribution::kZipfian;
    obs::MetricsRegistry metrics;
    add(families_of(4, cfg, spec, metrics));
  }
  {  // Delta epochs (patches + compactions) with a durability domain.
    const std::filesystem::path dir = testing_support::unique_test_dir();
    std::filesystem::remove_all(dir);
    serve::ServeOptions cfg = base_options();
    cfg.epoch.mode = serve::EpochMode::kIncremental;
    cfg.epoch.overlay_capacity = 64;
    cfg.persist.dir = dir.string();
    cfg.persist.snapshot_every = 2;
    serve::OpenLoopSpec spec = base_stream();
    spec.update_fraction = 0.3;
    obs::MetricsRegistry metrics;
    add(families_of(2, cfg, spec, metrics));
    std::filesystem::remove_all(dir);
  }
  {  // The closed-loop autotuner on a saturating overlap run.
    obs::MetricsRegistry metrics;
    tune::AutotunerConfig tcfg;
    tcfg.tick_every = 100e-6;
    tcfg.cooldown_ticks = 0;
    tune::Autotuner tuner(tcfg, metrics);
    serve::ServeOptions cfg = base_options();
    cfg.epoch.mode = serve::EpochMode::kOverlap;
    cfg.tuner = &tuner;
    serve::OpenLoopSpec spec = base_stream();
    spec.arrivals_per_second = 12e6;
    add(families_of(2, cfg, spec, metrics));
  }

  // The configurations reached the lazily registered corners.
  for (const char* name :
       {"serve_evicted_total", "serve_class_throttled_total",
        "fault_shards_restored_total", "fault_replicas_rejoined_total",
        "shard_plan_version", "reshard_migrations_total",
        "serve_epoch_patch_build_seconds", "persist_log_batches"}) {
    EXPECT_EQ(registered.count(name), 1u) << name << " never registered";
  }

  const std::set<std::string> documented = documented_names();
  for (const std::string& family : registered) {
    EXPECT_EQ(documented.count(family), 1u)
        << family << " is registered but missing from "
        << "docs/observability.md#metric-inventory";
  }
}

}  // namespace
}  // namespace harmonia
