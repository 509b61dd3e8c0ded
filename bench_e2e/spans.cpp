#include "spans.hpp"

#include "common/expect.hpp"
#include "metrics.hpp"

namespace e2e {

Spans::Spans(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

double Spans::now() const {
  return std::chrono::duration<double>(Clock::now() - origin_).count();
}

Spans::Scope Spans::open(std::string name) {
  if (!enabled_) return Scope(nullptr, 0);
  Span s;
  s.id = spans_.size() + 1;
  s.parent = open_.empty() ? kNoParent : spans_[open_.back()].id;
  s.name = std::move(name);
  s.start = now();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return Scope(this, spans_.size() - 1);
}

Spans::Scope::~Scope() {
  if (spans_ != nullptr) spans_->close(index_);
}

void Spans::close(std::size_t index) {
  HARMONIA_CHECK_MSG(!open_.empty() && open_.back() == index,
                     "span " << spans_[index].name << " closed out of order");
  spans_[index].end = now();
  open_.pop_back();
}

void Spans::write_chrome_trace(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"name\":" << json_string(s.name)
       << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << json_number(s.start * 1e6)
       << ",\"dur\":" << json_number((s.end - s.start) * 1e6) << ",\"args\":{\"id\":" << s.id
       << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
}

std::map<std::string, double> Spans::self_seconds() const {
  std::vector<double> child_time(spans_.size() + 1, 0.0);
  for (const Span& s : spans_) child_time[s.parent] += s.end - s.start;
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += (s.end - s.start) - child_time[s.id];
  return out;
}

std::map<std::string, double> Spans::total_seconds() const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += s.end - s.start;
  return out;
}

}  // namespace e2e
