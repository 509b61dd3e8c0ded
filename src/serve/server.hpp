// The online query-serving front end over a single HarmoniaIndex/device:
// the Backend composition (serve/backend.hpp) over one shard — one
// bounded admission queue + deadline-driven batch scheduler and one
// epoch engine, on one device timeline.
//
// Event order is deterministic (see serve/backend.hpp): the next event is
// the earliest of (next arrival, oldest batch deadline, oldest update
// deadline, staged image swap); size triggers fire inside the arrival
// that fills a lane or the update buffer. In quiesce mode an update epoch
// first drains every pending query batch at the trigger time, then
// applies and resyncs; in overlap mode the epoch builds and uploads in
// the background and swaps atomically at a batch boundary — either way
// every query is served by a tree with a whole number of epochs applied,
// and each response records which epoch count it observed.
#pragma once

#include <algorithm>

#include "harmonia/index.hpp"
#include "serve/backend.hpp"
#include "serve/options.hpp"

namespace harmonia::serve {

class Server : public Backend {
 public:
  Server(HarmoniaIndex& index, const ServeOptions& config);

 protected:
  double next_batch_time(double now) const override;
  void dispatch_ready_batch(double now, RequestSource& source,
                            ServerReport& report) override;
  void submit(const Request& r, RequestSource& source,
              ServerReport& report) override;
  void drain_queries(double at, RequestSource& source,
                     ServerReport& report) override;
  std::span<double> device_timelines() override { return {&device_free_, 1}; }
  /// The swap lands on a batch boundary: the staged image is uploaded AND
  /// the device is between batches.
  double swap_time(unsigned /*s*/, double ready) const override {
    return std::max(ready, device_free_);
  }
  void final_drain(double now, RequestSource& source,
                   ServerReport& report) override;

 private:
  void handle_dispatch(BatchScheduler::Dispatch d, RequestSource& source,
                       ServerReport& report);

  BatchScheduler& scheduler_;
  double device_free_ = 0.0;
};

}  // namespace harmonia::serve
