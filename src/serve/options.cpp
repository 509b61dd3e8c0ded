#include "serve/options.hpp"

#include <cstddef>
#include <string>

#include "common/expect.hpp"

namespace harmonia::serve {

namespace {

/// Parses a "g,s,b" comma triple (one value per priority class).
std::array<double, qos::kNumClasses> parse_class_triple(
    const std::string& spec, const char* flag) {
  std::array<double, qos::kNumClasses> out{};
  std::size_t pos = 0;
  for (std::size_t c = 0; c < qos::kNumClasses; ++c) {
    const std::size_t comma = spec.find(',', pos);
    const bool last = c + 1 == qos::kNumClasses;
    HARMONIA_CHECK_MSG(last == (comma == std::string::npos),
                       "--" << flag << " wants exactly " << qos::kNumClasses
                            << " comma-separated values (gold,silver,bronze), "
                               "got '" << spec << "'");
    const std::string field =
        spec.substr(pos, last ? std::string::npos : comma - pos);
    try {
      std::size_t used = 0;
      out[c] = std::stod(field, &used);
      HARMONIA_CHECK(used == field.size());
    } catch (const std::exception&) {
      HARMONIA_CHECK_MSG(false, "--" << flag << ": '" << field
                                     << "' is not a number in '" << spec << "'");
    }
    pos = comma + 1;
  }
  return out;
}

}  // namespace

void ServeOptions::validate(unsigned num_shards) const {
  HARMONIA_CHECK_MSG(num_shards >= 1, "a serving topology needs >= 1 shard");
  HARMONIA_CHECK_MSG(replicas >= 1 && replicas <= 8,
                     "replicas must be in [1, 8], got " << replicas);
  HARMONIA_CHECK_MSG(replicas == 1 || num_shards >= 2,
                     "replica groups ride the range-sharded serving path "
                     "(--shards >= 2); a single-device topology has no "
                     "scatter/gather to pick replicas in");
  if (reshard.split_hot) {
    HARMONIA_CHECK_MSG(reshard.detect_every > 0.0,
                       "reshard.detect_every must be positive");
    HARMONIA_CHECK_MSG(reshard.hot_factor > 1.0,
                       "reshard.hot_factor must exceed 1 (a shard at the mean "
                       "is not hot)");
    HARMONIA_CHECK_MSG(num_shards >= 2,
                       "hot-range splitting moves a partition boundary between "
                       "adjacent shards — it needs >= 2 shards");
    HARMONIA_CHECK_MSG(!persist.enabled() && durability == nullptr,
                       "hot-range splitting moves keys between shards but the "
                       "shard plan is not persisted, so a run that migrated "
                       "cannot recover — --split-hot excludes --snapshot-dir");
  }

  HARMONIA_CHECK_MSG(batch.max_batch > 0, "batch.max_batch must be positive");
  HARMONIA_CHECK_MSG(batch.max_wait > 0.0, "batch.max_wait must be positive");
  HARMONIA_CHECK_MSG(
      batch.queue_capacity >= batch.max_batch,
      "batch.queue_capacity (" << batch.queue_capacity
                               << ") must cover the size trigger max_batch ("
                               << batch.max_batch << ")");
  HARMONIA_CHECK_MSG(batch.max_range_results > 0,
                     "batch.max_range_results must be positive");
  HARMONIA_CHECK_MSG(batch.pipeline.chunk_size > 0,
                     "batch.pipeline.chunk_size must be positive");

  HARMONIA_CHECK_MSG(epoch.max_buffered > 0, "epoch.max_buffered must be positive");
  HARMONIA_CHECK_MSG(epoch.max_wait > 0.0, "epoch.max_wait must be positive");
  HARMONIA_CHECK_MSG(epoch.apply_threads > 0, "epoch.apply_threads must be positive");
  HARMONIA_CHECK_MSG(epoch.seconds_per_op >= 0.0,
                     "epoch.seconds_per_op may not be negative");
  HARMONIA_CHECK_MSG(epoch.seconds_per_patch_op >= 0.0,
                     "epoch.seconds_per_patch_op may not be negative");
  HARMONIA_CHECK_MSG(epoch.mode != EpochMode::kIncremental ||
                         epoch.overlay_capacity > 0,
                     "incremental epoch mode needs a positive overlay capacity");

  HARMONIA_CHECK_MSG(link.gigabytes_per_second > 0.0,
                     "link.gigabytes_per_second must be positive");
  HARMONIA_CHECK_MSG(link.latency_seconds >= 0.0,
                     "link.latency_seconds may not be negative");

  HARMONIA_CHECK_MSG(mitigation.retry.max_attempts >= 1,
                     "mitigation.retry.max_attempts must be >= 1");
  HARMONIA_CHECK_MSG(mitigation.degraded.max_backlog >= 0.0,
                     "mitigation.degraded.max_backlog may not be negative");

  qos.validate();

  // The runtime-tunable knobs start from their configured values; the
  // initial snapshot must already pass the same bounds apply_tunables
  // enforces online (group-size/sort-bits ranges, batch within queue).
  Tunables::from(*this).validate(*this);

  HARMONIA_CHECK_MSG(!persist.recover || persist.enabled(),
                     "persist.recover needs persist.dir (--snapshot-dir) set");
  HARMONIA_CHECK_MSG(persist.retain >= 2,
                     "persist.retain must be >= 2 (a torn newest snapshot must leave an "
                     "intact predecessor)");

  for (std::size_t i = 0; i < faults.events.size(); ++i) {
    const fault::FaultEvent& e = faults.events[i];
    HARMONIA_CHECK_MSG(e.shard < num_shards,
                       "fault event #" << i << " (" << fault::to_string(e.kind)
                           << "): field 'shard' (" << e.shard << ") exceeds the "
                           << "topology's " << num_shards << " shard(s)");
    HARMONIA_CHECK_MSG(e.kind != fault::FaultKind::kShardLost ||
                           num_shards > 1 || replicas > 1,
                       "fault event #" << i << " (lose): shard-lost faults need a "
                       "sharded or replicated topology (there is nothing to "
                       "fail over to)");
    HARMONIA_CHECK_MSG(e.kind != fault::FaultKind::kReplicaLost || replicas > 1,
                       "fault event #" << i << " (replica-lost): replica faults "
                       "need a replica group (--replicas > 1); use 'lose' for "
                       "unreplicated shards");
    if (e.kind == fault::FaultKind::kShardLost ||
        e.kind == fault::FaultKind::kReplicaLost) {
      HARMONIA_CHECK_MSG(e.replica < replicas,
                         "fault event #" << i << " (" << fault::to_string(e.kind)
                             << "): field 'replica' (" << e.replica
                             << ") exceeds the group size " << replicas);
    }
    HARMONIA_CHECK_MSG(e.kind != fault::FaultKind::kProcessRestart,
                       "fault event #" << i << " (restart): process-restart faults "
                       "are consumed by the restart harness, never by a backend — "
                       "a server cannot restart itself (run through "
                       "shard::run_with_restarts)");
  }
}

void ServeOptions::add_flags(Cli& cli) {
  cli.flag("max-batch", "batch size trigger", "2048")
      .flag("max-wait-us", "batch deadline (us)", "200")
      .flag("queue-cap", "admission queue capacity per lane", "16384")
      .flag("epoch-updates", "updates buffered per epoch", "4096")
      .flag("epoch-mode", "epoch pipeline: quiesce (stall-the-world), "
                          "overlap (double-buffered image swap), or delta "
                          "(in-place patches + device overlay, compaction "
                          "fallback)", "quiesce")
      .flag("overlay-cap", "delta-mode device overlay bound in entries "
                           "(per shard)", "1024")
      .flag("apply-threads", "CPU workers for the Algorithm-1 batch apply", "1")
      .flag("group-size", "NTG thread-group size for dispatched batches "
                          "(power of two <= warp; 0 = fanout default)", "0")
      .flag("sort-bits", "PSA sort-bit count for dispatched batches "
                         "(0 = Equation 2)", "0")
      .flag("pcie", "link bandwidth in GB/s", "12.0")
      .flag("replicas", "replica group size K per shard (1 = unreplicated)",
            "1")
      .flag("split-hot", "enable hot-range splitting + live resharding",
            "false")
      .flag("hot-factor", "shard hotness threshold as a multiple of the "
                          "fleet-mean window load", "2.0")
      .flag("detect-every-us", "hot-range detection cadence (us)", "1000")
      .flag("max-migrations", "live migrations allowed per run", "4")
      .flag("min-window", "minimum routed queries in a detection window "
                          "before a shard may trigger a split", "256")
      .flag("faults", "fault spec, kind@sec:key=val,... joined by ';' "
                      "(see docs/fault_tolerance.md)", "")
      .flag("class-weights", "weighted-fair dispatch shares as "
                             "gold,silver,bronze (enables QoS)", "")
      .flag("class-deadlines", "batch-deadline stretch factors as "
                               "gold,silver,bronze (enables QoS)", "")
      .flag("tenant-rate", "per-tenant admission rate in requests per "
                           "virtual second, 0 = no throttling (enables QoS)",
            "0")
      .flag("tenant-burst", "per-tenant token-bucket burst capacity", "32")
      .flag("snapshot-dir", "durable snapshot + update-log directory "
                            "(empty = persistence off)", "")
      .flag("snapshot-every", "logged epochs between cadence snapshots "
                              "(0 = only compaction-forced snapshots)", "8")
      .flag("snapshot-retain", "snapshots retained per shard (at least 2)", "2")
      .flag("recover", "cold-start from --snapshot-dir (newest valid "
                       "snapshot + log replay) instead of bulk building",
            "false");
}

ServeOptions ServeOptions::from_cli(const Cli& cli) {
  ServeOptions opts;
  opts.batch.max_batch = cli.get_uint("max-batch", 2048);
  // Override only when set: scaling the default through us->seconds
  // arithmetic would drift a ulp off the struct default, breaking the
  // defaults-survive-the-round-trip property.
  if (cli.has("max-wait-us"))
    opts.batch.max_wait =
        static_cast<double>(cli.get_uint("max-wait-us", 200)) * 1e-6;
  opts.batch.queue_capacity = cli.get_uint("queue-cap", 16384);
  opts.epoch.max_buffered = cli.get_uint("epoch-updates", 4096);
  const std::string mode =
      cli.get_choice("epoch-mode", {"quiesce", "overlap", "delta"}, "quiesce");
  opts.epoch.mode = mode == "overlap"  ? EpochMode::kOverlap
                    : mode == "delta" ? EpochMode::kIncremental
                                      : EpochMode::kQuiesce;
  opts.epoch.overlay_capacity = cli.get_uint("overlay-cap", 1024);
  opts.epoch.apply_threads =
      static_cast<unsigned>(cli.get_uint("apply-threads", 1));
  opts.batch.pipeline.query_options.group_size =
      static_cast<unsigned>(cli.get_uint("group-size", 0));
  opts.batch.pipeline.query_options.psa_override_bits =
      static_cast<unsigned>(cli.get_uint("sort-bits", 0));
  opts.link.gigabytes_per_second = cli.get_double("pcie", 12.0);
  opts.replicas = static_cast<unsigned>(cli.get_uint("replicas", 1));
  opts.reshard.split_hot = cli.get_bool("split-hot", false);
  opts.reshard.hot_factor = cli.get_double("hot-factor", 2.0);
  opts.reshard.detect_every =
      static_cast<double>(cli.get_uint("detect-every-us", 1000)) * 1e-6;
  opts.reshard.max_migrations =
      static_cast<unsigned>(cli.get_uint("max-migrations", 4));
  opts.reshard.min_window_queries = cli.get_uint("min-window", 256);
  if (const std::string spec = cli.get_string("faults", ""); !spec.empty())
    opts.faults = fault::FaultPlan::parse(spec);
  if (const std::string spec = cli.get_string("class-weights", "");
      !spec.empty()) {
    const auto w = parse_class_triple(spec, "class-weights");
    for (std::size_t c = 0; c < qos::kNumClasses; ++c)
      opts.qos.classes[c].weight = w[c];
    opts.qos.enabled = true;
  }
  if (const std::string spec = cli.get_string("class-deadlines", "");
      !spec.empty()) {
    const auto f = parse_class_triple(spec, "class-deadlines");
    for (std::size_t c = 0; c < qos::kNumClasses; ++c)
      opts.qos.classes[c].deadline_factor = f[c];
    opts.qos.enabled = true;
  }
  opts.qos.tenant_rate = cli.get_double("tenant-rate", 0.0);
  opts.qos.tenant_burst = cli.get_double("tenant-burst", 32.0);
  if (opts.qos.tenant_rate > 0.0) opts.qos.enabled = true;
  opts.persist.dir = cli.get_string("snapshot-dir", "");
  opts.persist.snapshot_every = cli.get_uint("snapshot-every", 8);
  opts.persist.retain = cli.get_uint("snapshot-retain", 2);
  opts.persist.recover = cli.get_bool("recover", false);
  return opts;
}

}  // namespace harmonia::serve
