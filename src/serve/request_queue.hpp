// Bounded admission queue: the backpressure point of the serving layer.
//
// Admission either succeeds (the request waits for a batch) or fails
// immediately (queue full -> the caller records a dropped response).
// Rejecting at admission keeps queueing delay bounded instead of letting
// an overloaded server grow an unbounded backlog.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>

#include "serve/request.hpp"

namespace harmonia::serve {

class RequestQueue {
 public:
  explicit RequestQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Admits `r` unless the queue is at capacity. Returns false on reject.
  bool try_push(const Request& r);

  const Request& front() const { return pending_.front(); }
  Request pop();
  /// Removes and returns the *newest* waiting request (QoS overload
  /// eviction sheds the request that has invested the least waiting).
  Request pop_back();

  bool empty() const { return pending_.empty(); }
  std::size_t size() const { return pending_.size(); }
  std::size_t capacity() const { return capacity_; }

  /// Arrival time of the oldest waiting request; +inf when empty (so
  /// deadline arithmetic needs no special casing).
  double oldest_arrival() const {
    return pending_.empty() ? std::numeric_limits<double>::infinity()
                            : pending_.front().arrival;
  }

 private:
  std::size_t capacity_;
  std::deque<Request> pending_;
};

}  // namespace harmonia::serve
