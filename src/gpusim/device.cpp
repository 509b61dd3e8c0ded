#include "gpusim/device.hpp"

#include <algorithm>

namespace harmonia::gpusim {

namespace {
/// Constant caches are small; 2 KiB per SM models the 8 KiB broadcast
/// cache conservatively sliced for our working set.
constexpr std::uint64_t kConstCacheBytes = 2 << 10;
}  // namespace

Device::Device(DeviceSpec spec)
    : spec_((spec.validate(), std::move(spec))),
      memory_(spec_.global_mem_bytes, spec_.const_mem_bytes),
      l2_(spec_.l2_bytes, spec_.line_bytes, spec_.cache_ways) {
  readonly_.reserve(spec_.num_sms);
  const_.reserve(spec_.num_sms);
  for (unsigned sm = 0; sm < spec_.num_sms; ++sm) {
    readonly_.emplace_back(spec_.readonly_cache_bytes_per_sm, spec_.line_bytes,
                           spec_.cache_ways);
    const_.emplace_back(kConstCacheBytes, spec_.line_bytes, spec_.cache_ways);
  }
}

Cache& Device::readonly_cache(unsigned sm) {
  HARMONIA_CHECK(sm < readonly_.size());
  return readonly_[sm];
}

Cache& Device::const_cache(unsigned sm) {
  HARMONIA_CHECK(sm < const_.size());
  return const_[sm];
}

void Device::flush_caches() {
  l2_.flush();
  for (auto& c : readonly_) c.flush();
  for (auto& c : const_) c.flush();
}

KernelMetrics Device::launch(std::uint64_t num_warps, const WarpKernel& kernel) {
  HARMONIA_CHECK(num_warps > 0);
  KernelMetrics metrics;
  metrics.sm_compute_cycles.assign(spec_.num_sms, 0);
  metrics.sm_mem_cycles.assign(spec_.num_sms, 0);
  metrics.sm_resident_warps.assign(spec_.num_sms, 0);
  active_metrics_ = &metrics;

  for (std::uint64_t w = 0; w < num_warps; ++w) {
    const auto sm = static_cast<unsigned>(w % spec_.num_sms);
    WarpCtx ctx(*this, w, sm);
    kernel(ctx);
    metrics.sm_compute_cycles[sm] += ctx.compute_cycles_;
    metrics.sm_mem_cycles[sm] += ctx.mem_cycles_;
    metrics.sm_resident_warps[sm] += 1;
    ++metrics.warps;
  }

  active_metrics_ = nullptr;
  return metrics;
}

unsigned WarpCtx::warp_size() const { return device_.spec_.warp_size; }

const DeviceSpec& WarpCtx::spec() const { return device_.spec_; }

void WarpCtx::compute(LaneMask active, unsigned steps) {
  HARMONIA_DCHECK(active != 0);
  KernelMetrics& m = *device_.active_metrics_;
  m.steps += steps;
  if (active == full_mask(warp_size())) m.coherent_steps += steps;
  const std::uint64_t cycles =
      static_cast<std::uint64_t>(steps) * device_.spec_.cycles_per_compute_step;
  compute_cycles_ += cycles;
  if (device_.trace_.enabled()) {
    device_.trace_.record({warp_id_, sm_id_, TraceEventKind::kCompute, active, 0,
                           ServedBy::kNone, cycles});
  }
}

void WarpCtx::touch(LaneMask active, std::span<const std::uint64_t> addrs,
                    unsigned bytes_per_lane) {
  mem_cycles_ += account_access(active, addrs, bytes_per_lane, TraceEventKind::kLoad);
}

std::uint64_t WarpCtx::account_access(LaneMask active, std::span<const std::uint64_t> addrs,
                                      unsigned bytes_per_lane, TraceEventKind kind) {
  if (active == 0) return 0;
  KernelMetrics& m = *device_.active_metrics_;
  const DeviceSpec& spec = device_.spec_;

  const LineSet lines = coalesce(addrs, active, bytes_per_lane, spec.line_bytes);
  HARMONIA_DCHECK(!lines.empty());

  ++m.loads;
  if (lines.size() > 1) ++m.divergent_loads;
  m.transactions += lines.size();

  // The warp's load completes when its slowest line is served; additional
  // transactions serialize in the load/store unit.
  std::uint64_t worst_latency = 0;
  ServedBy worst_level = ServedBy::kNone;
  auto slower = [&](std::uint64_t lat, ServedBy level) {
    if (lat >= worst_latency) {
      worst_latency = lat;
      worst_level = level;
    }
  };
  for (std::uint64_t line : lines) {
    std::uint64_t lat;
    ServedBy level;
    // Line addresses of constant space retain the kConstBase tag, so the
    // two spaces never alias in the shared L2.
    if (line >= kConstBase / spec.line_bytes) {
      if (device_.const_[sm_id_].access(line)) {
        ++m.const_hits;
        lat = spec.lat_const;
        level = ServedBy::kConst;
      } else if (device_.l2_.access(line)) {
        ++m.l2_hits;
        lat = spec.lat_l2;
        level = ServedBy::kL2;
      } else {
        ++m.dram_transactions;
        lat = spec.lat_dram;
        level = ServedBy::kDram;
      }
    } else {
      if (device_.readonly_[sm_id_].access(line)) {
        ++m.readonly_hits;
        lat = spec.lat_readonly;
        level = ServedBy::kReadOnly;
      } else if (device_.l2_.access(line)) {
        ++m.l2_hits;
        lat = spec.lat_l2;
        level = ServedBy::kL2;
      } else {
        ++m.dram_transactions;
        lat = spec.lat_dram;
        level = ServedBy::kDram;
      }
    }
    slower(lat, level);
  }
  const std::uint64_t cycles =
      worst_latency + static_cast<std::uint64_t>(lines.size() - 1) * spec.txn_issue_cycles;
  if (device_.trace_.enabled()) {
    device_.trace_.record({warp_id_, sm_id_, kind, active,
                           static_cast<std::uint32_t>(lines.size()), worst_level, cycles});
  }
  return cycles;
}

}  // namespace harmonia::gpusim
