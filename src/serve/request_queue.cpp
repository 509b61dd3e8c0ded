#include "serve/request_queue.hpp"

namespace harmonia::serve {

const char* to_string(RequestKind kind) {
  switch (kind) {
    case RequestKind::kPoint: return "point";
    case RequestKind::kRange: return "range";
    case RequestKind::kUpdate: return "update";
    case RequestKind::kScan: return "scan";
  }
  return "?";
}

bool RequestQueue::try_push(const Request& r) {
  if (pending_.size() >= capacity_) return false;
  pending_.push_back(r);
  return true;
}

Request RequestQueue::pop() {
  Request r = pending_.front();
  pending_.pop_front();
  return r;
}

Request RequestQueue::pop_back() {
  Request r = pending_.back();
  pending_.pop_back();
  return r;
}

}  // namespace harmonia::serve
