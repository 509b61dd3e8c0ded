#include "obs/trace.hpp"

#include "obs/metrics.hpp"

namespace harmonia::obs {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

const char* to_string(Stage stage) {
  switch (stage) {
    case Stage::kQueueEnter: return "queue_enter";
    case Stage::kBatchForm: return "batch_form";
    case Stage::kDispatch: return "dispatch";
    case Stage::kShardScatter: return "shard_scatter";
    case Stage::kGatherMerge: return "gather_merge";
    case Stage::kReply: return "reply";
    case Stage::kAnnotation: return "annotation";
  }
  return "?";
}

std::vector<TraceEvent> TraceRecorder::for_request(std::uint64_t request_id) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events_) {
    if (e.request_id == request_id) out.push_back(e);
  }
  return out;
}

void TraceRecorder::write_csv(std::ostream& os) const {
  os << "request_id,stage,at_seconds,shard,note\n";
  for (const TraceEvent& e : events_) {
    if (e.request_id == kNoRequest) {
      os << "-";
    } else {
      os << e.request_id;
    }
    os << "," << to_string(e.stage) << "," << format_double(e.at) << ",";
    if (e.shard == kNoShard) {
      os << "-";
    } else {
      os << e.shard;
    }
    // Notes are controlled strings (no commas by construction), so no
    // quoting pass is needed; keep them verbatim.
    os << "," << e.note << "\n";
  }
}

void TraceRecorder::write_json(std::ostream& os) const {
  os << "[\n";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    os << "  {";
    if (e.request_id != kNoRequest) os << "\"request_id\": " << e.request_id << ", ";
    os << "\"stage\": \"" << to_string(e.stage) << "\", \"at\": " << format_double(e.at);
    if (e.shard != kNoShard) os << ", \"shard\": " << e.shard;
    if (!e.note.empty()) os << ", \"note\": \"" << json_escape(e.note) << "\"";
    os << "}" << (i + 1 < events_.size() ? "," : "") << "\n";
  }
  os << "]\n";
}

}  // namespace harmonia::obs
