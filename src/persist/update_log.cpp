#include "persist/update_log.hpp"

#include <cstring>
#include <fstream>

#include "common/expect.hpp"
#include "fault/checksum.hpp"

namespace harmonia::persist {

namespace {

constexpr std::uint32_t kLogMagic = 0x484C4F47;  // "HLOG"
constexpr std::size_t kHeaderBytes = 8;          // magic + crc
constexpr std::size_t kBodyFixedBytes = 12;      // epoch + count
constexpr std::size_t kOpBytes = 17;             // kind + key + value
/// Decode-side sanity bound on a record's op count: a corrupted count
/// field must fail fast, not drive a huge read.
constexpr std::uint32_t kMaxOpsPerRecord = 1u << 24;

template <typename T>
void put(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
T get(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace

std::string UpdateLog::encode(std::uint64_t epoch, std::span<const queries::UpdateOp> ops) {
  std::string body;
  body.reserve(kBodyFixedBytes + ops.size() * kOpBytes);
  put(body, epoch);
  put(body, static_cast<std::uint32_t>(ops.size()));
  for (const auto& op : ops) {
    put(body, static_cast<std::uint8_t>(op.kind));
    put(body, op.key);
    put(body, op.value);
  }
  std::string record;
  record.reserve(kHeaderBytes + body.size());
  put(record, kLogMagic);
  put(record, fault::crc32(body.data(), body.size()));
  record += body;
  return record;
}

void UpdateLog::append(std::uint64_t epoch, std::span<const queries::UpdateOp> ops) {
  const std::string record = encode(epoch, ops);
  std::ofstream os(path_, std::ios::binary | std::ios::app);
  HARMONIA_CHECK_MSG(os.good(), "cannot open update log " << path_.string());
  os.write(record.data(), static_cast<std::streamsize>(record.size()));
  os.flush();
  HARMONIA_CHECK_MSG(os.good(), "write failure on update log " << path_.string());
}

LogReplay UpdateLog::replay(const std::filesystem::path& path) {
  LogReplay out;
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return out;  // no log yet: empty replay
  std::string bytes((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
  out.total_bytes = bytes.size();

  std::size_t pos = 0;
  std::uint64_t prev_epoch = 0;
  bool have_prev = false;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kHeaderBytes + kBodyFixedBytes) break;
    const char* p = bytes.data() + pos;
    if (get<std::uint32_t>(p) != kLogMagic) break;
    const auto crc = get<std::uint32_t>(p + 4);
    const auto epoch = get<std::uint64_t>(p + 8);
    const auto count = get<std::uint32_t>(p + 16);
    if (count > kMaxOpsPerRecord) break;
    const std::size_t body_bytes = kBodyFixedBytes + std::size_t{count} * kOpBytes;
    if (bytes.size() - pos < kHeaderBytes + body_bytes) break;
    if (fault::crc32(p + kHeaderBytes, body_bytes) != crc) break;
    if (have_prev && epoch <= prev_epoch) break;

    LogBatch batch;
    batch.epoch = epoch;
    batch.ops.reserve(count);
    const char* op = p + kHeaderBytes + kBodyFixedBytes;
    for (std::uint32_t i = 0; i < count; ++i, op += kOpBytes) {
      const auto kind = get<std::uint8_t>(op);
      if (kind > static_cast<std::uint8_t>(queries::OpKind::kDelete)) break;
      batch.ops.push_back({static_cast<queries::OpKind>(kind), get<std::uint64_t>(op + 1),
                           get<std::uint64_t>(op + 9)});
    }
    if (batch.ops.size() != count) break;  // bad op kind: treat as torn

    out.ops += count;
    out.batches.push_back(std::move(batch));
    prev_epoch = epoch;
    have_prev = true;
    pos += kHeaderBytes + body_bytes;
  }
  out.valid_bytes = pos;
  out.torn_tail = pos < bytes.size();
  return out;
}

void UpdateLog::truncate(const std::filesystem::path& path, std::uint64_t valid_bytes) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return;
  std::filesystem::resize_file(path, valid_bytes, ec);
  HARMONIA_CHECK_MSG(!ec, "cannot truncate update log " << path.string() << ": " << ec.message());
}

}  // namespace harmonia::persist
