// Append-only, replayable update log (the WAL half of durability).
//
// Every epoch's update batch is appended as one self-describing record
// *before* the batch is applied to the in-memory index, so the on-disk
// log is always ahead of (or equal to) the committed state. Each record
// carries its own magic and CRC32 (fault::crc32 — the same routine the
// image-audit layer uses), so replay can stop exactly at the first torn
// or corrupted byte: a crash mid-append loses at most the record being
// written, never an earlier one.
//
// Record layout (all fields little-endian, packed — no struct padding):
//
//   u32  magic   "HLOG" (0x484C4F47)
//   u32  crc     CRC32 over the body (epoch..ops)
//   u64  epoch   strictly increasing across records
//   u32  count   ops in this record
//   count x { u8 kind, u64 key, u64 value }
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "queries/batch.hpp"

namespace harmonia::persist {

struct LogBatch {
  std::uint64_t epoch = 0;
  std::vector<queries::UpdateOp> ops;
};

struct LogReplay {
  /// Decoded records in append order (epochs strictly increasing).
  std::vector<LogBatch> batches;
  std::uint64_t ops = 0;
  /// Bytes of the valid prefix; truncating the file here repairs it.
  std::uint64_t valid_bytes = 0;
  std::uint64_t total_bytes = 0;
  /// True when bytes past the valid prefix existed (torn append or
  /// corruption) — recovery discards them.
  bool torn_tail = false;
};

class UpdateLog {
 public:
  explicit UpdateLog(std::filesystem::path path) : path_(std::move(path)) {}

  const std::filesystem::path& path() const { return path_; }

  /// Framed record sizing (the layout above): magic+crc+epoch+count per
  /// record, kind+key+value per op. The replica catch-up path uses these
  /// to cost log-tail shipping over the transfer model.
  static constexpr std::uint64_t kRecordFixedBytes = 20;
  static constexpr std::uint64_t kOpBytes = 17;

  /// Serializes one record; what append() writes and replay() decodes.
  static std::string encode(std::uint64_t epoch, std::span<const queries::UpdateOp> ops);

  /// Appends one record and flushes. Direct-to-disk path for tests and
  /// benches; the serving layer writes encode()d records through its
  /// crash-aware ShardDurability instead.
  void append(std::uint64_t epoch, std::span<const queries::UpdateOp> ops);

  /// Decodes the longest valid prefix of the log. Missing file = empty
  /// replay (a fresh shard has no log yet).
  static LogReplay replay(const std::filesystem::path& path);

  /// Chops the file to its valid prefix (post-replay repair).
  static void truncate(const std::filesystem::path& path, std::uint64_t valid_bytes);

 private:
  std::filesystem::path path_;
};

}  // namespace harmonia::persist
