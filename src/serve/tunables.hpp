// serve::Tunables — the runtime-adjustable half of the serving config.
//
// ServeOptions used to freeze every knob at construction; there was no
// sanctioned way to change a parameter on a live backend. Tunables splits
// the surface: construction-time config (topology, capacities, modes,
// fault plans) stays in ServeOptions, while the four knobs a controller
// may legitimately move online — batch size/deadline, NTG group size,
// PSA sort bits — travel as a validated snapshot that
// shard::ShardedServer exposes via tunables()/apply_tunables(). The
// Algorithm-1 thread count is not among them: the virtual clock charges
// an apply per op whatever the thread count, so a runtime thread knob
// could not move anything the controller reads.
//
// Safe points (docs/serving.md#autotuner): scheduler knobs install
// between dispatches (the next batch formation); the image/PSA knobs
// (group_size, sort_bits) install only at an epoch-swap boundary — while
// a staged epoch is in flight they latch and land with the last swap, so
// in a sharded topology no two shards ever dispatch with mixed values.
//
// TuneController is the closed-loop side of the same surface: an
// abstract controller (implemented by tune::Autotuner) the backend ticks
// on the virtual clock. Every decision — applied, vetoed, rolled back —
// is stamped into metrics (serve_tune_*_total) and the trace.
#pragma once

#include <cstdint>
#include <string>

namespace harmonia::serve {

struct ServeOptions;

struct Tunables {
  /// Scheduler knobs — take effect at the next batch formation.
  std::size_t max_batch = 2048;
  double max_wait = 200e-6;
  /// Image/PSA knobs — swap-boundary only. group_size: explicit NTG
  /// thread-group size (power of two <= warp; 0 = fanout-based default).
  unsigned group_size = 0;
  /// PSA sort-bit count (0 = Equation 2 recomputes per batch).
  unsigned sort_bits = 0;

  bool operator==(const Tunables&) const = default;

  /// The initial snapshot a backend starts from: the corresponding
  /// fields of its validated construction-time options.
  static Tunables from(const ServeOptions& opts);

  /// Rejects a snapshot the owning backend could not serve with:
  /// max_batch must stay positive and within the construction-time queue
  /// capacity (the queues themselves are not resizable), max_wait
  /// positive, group_size a power of two <= the warp width
  /// (or 0), sort_bits <= the key width. Throws ContractViolation.
  void validate(const ServeOptions& opts) const;
};

/// One-line rendering for trace annotations and test failure messages.
std::string to_string(const Tunables& t);

/// What a controller decided at one tick. kNone ticks are silent;
/// kApply/kVeto/kRollback are each counted and trace-annotated.
enum class TuneAction : std::uint8_t { kNone, kApply, kVeto, kRollback };

const char* to_string(TuneAction action);

struct TuneDecision {
  TuneAction action = TuneAction::kNone;
  /// The snapshot to install (kApply / kRollback only).
  Tunables target;
  /// Human-readable rationale ("max_batch 2048->4096 tput +4.1%"); goes
  /// verbatim into the trace annotation.
  std::string note;
};

/// The closed-loop controller interface (implemented by tune::Autotuner;
/// ServeOptions carries a non-owning pointer). The backend drives it
/// from the event loop on the deterministic virtual clock, so a
/// controller that reads only its inputs replays bit-identically.
class TuneController {
 public:
  virtual ~TuneController() = default;

  /// Next control-round instant on the virtual clock; +inf disables
  /// ticking. The backend never ticks after the stream has drained.
  virtual double next_tick() const = 0;

  /// Runs one control round at `now` against the currently adopted
  /// snapshot. The backend installs kApply/kRollback targets itself (at
  /// the knobs' safe points) and stamps every non-kNone action.
  virtual TuneDecision tick(double now, const Tunables& current) = 0;

  /// Re-profile feedback from the backend at each epoch-swap boundary:
  /// the NTG group size (Equation 4 narrowing) and PSA sort bits
  /// (Equation 2) freshly profiled on the just-committed image.
  /// Controllers may re-seed their search from these; default ignores.
  virtual void observe_profile(double /*now*/, unsigned /*group_size*/,
                               unsigned /*sort_bits*/) {}
};

}  // namespace harmonia::serve
