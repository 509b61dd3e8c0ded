#include "serve/tunables.hpp"

#include <sstream>

#include "common/expect.hpp"
#include "serve/options.hpp"

namespace harmonia::serve {

namespace {
/// Widest thread group a warp can hold. The simulated devices all run
/// 32-lane warps (gpusim::DeviceSpec); resolve_group_size re-checks
/// against the actual spec at dispatch.
constexpr unsigned kWarpWidth = 32;
}  // namespace

Tunables Tunables::from(const ServeOptions& opts) {
  Tunables t;
  t.max_batch = opts.batch.max_batch;
  t.max_wait = opts.batch.max_wait;
  t.group_size = opts.batch.pipeline.query_options.group_size;
  t.sort_bits = opts.batch.pipeline.query_options.psa_override_bits;
  return t;
}

void Tunables::validate(const ServeOptions& opts) const {
  HARMONIA_CHECK_MSG(max_batch > 0, "tunables.max_batch must be positive");
  HARMONIA_CHECK_MSG(
      max_batch <= opts.batch.queue_capacity,
      "tunables.max_batch (" << max_batch << ") exceeds the construction-time "
          << "queue capacity (" << opts.batch.queue_capacity
          << ") — the admission queues are not resizable online");
  HARMONIA_CHECK_MSG(max_wait > 0.0, "tunables.max_wait must be positive");
  HARMONIA_CHECK_MSG(
      group_size == 0 ||
          (group_size <= kWarpWidth && (group_size & (group_size - 1)) == 0),
      "tunables.group_size (" << group_size << ") must be 0 (fanout default) "
          << "or a power of two <= the warp width " << kWarpWidth);
  HARMONIA_CHECK_MSG(sort_bits <= 64,
                     "tunables.sort_bits (" << sort_bits
                         << ") exceeds the 64-bit key width");
}

std::string to_string(const Tunables& t) {
  std::ostringstream os;
  os << "max_batch=" << t.max_batch << " max_wait_us=" << t.max_wait * 1e6
     << " group_size=" << t.group_size
     << " sort_bits=" << t.sort_bits;
  return os.str();
}

const char* to_string(TuneAction action) {
  switch (action) {
    case TuneAction::kNone: return "none";
    case TuneAction::kApply: return "applied";
    case TuneAction::kVeto: return "vetoed";
    case TuneAction::kRollback: return "rolled-back";
  }
  return "?";
}

}  // namespace harmonia::serve
