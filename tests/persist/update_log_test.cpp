// UpdateLog: record layout, append/replay round-trips, and — the part
// recovery leans on — torn-tail behaviour. A log truncated at *every*
// possible byte length must replay exactly its fully-intact record
// prefix, and a bit flip anywhere must stop replay before the damaged
// record, never corrupt a decoded batch.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fault/checksum.hpp"
#include "persist/update_log.hpp"
#include "queries/batch.hpp"
#include "test_dir.hpp"

namespace harmonia::persist {
namespace {

using queries::OpKind;
using queries::UpdateOp;

constexpr std::size_t kRecordHeaderBytes = 20;  // magic+crc+epoch+count
constexpr std::size_t kOpBytes = 17;            // kind+key+value, packed

class UpdateLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing_support::unique_test_dir();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = dir_ / "update.log";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void write_bytes(const std::string& bytes) {
    std::ofstream os(path_, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::filesystem::path dir_;
  std::filesystem::path path_;
};

std::vector<UpdateOp> sample_ops(std::uint64_t salt, std::size_t n) {
  std::vector<UpdateOp> ops;
  for (std::size_t i = 0; i < n; ++i) {
    const auto kind = static_cast<OpKind>(i % 3);
    ops.push_back({kind, 100 * salt + i, salt * 7 + i});
  }
  return ops;
}

/// Three-record log plus the batches it encodes, for prefix checks.
struct SampleLog {
  std::string bytes;
  std::vector<LogBatch> batches;
  std::vector<std::size_t> boundaries;  // byte offset after each record
};

SampleLog sample_log() {
  SampleLog out;
  std::size_t off = 0;
  for (std::uint64_t e = 1; e <= 3; ++e) {
    const auto ops = sample_ops(e, 2 + e);
    out.bytes += UpdateLog::encode(e, ops);
    out.batches.push_back({e, ops});
    off = out.bytes.size();
    out.boundaries.push_back(off);
  }
  return out;
}

void expect_batches_equal(const std::vector<LogBatch>& got,
                          const std::vector<LogBatch>& want, std::size_t upto) {
  ASSERT_LE(upto, want.size());
  ASSERT_EQ(got.size(), upto);
  for (std::size_t b = 0; b < upto; ++b) {
    EXPECT_EQ(got[b].epoch, want[b].epoch);
    ASSERT_EQ(got[b].ops.size(), want[b].ops.size());
    for (std::size_t i = 0; i < want[b].ops.size(); ++i) {
      EXPECT_EQ(got[b].ops[i].kind, want[b].ops[i].kind);
      EXPECT_EQ(got[b].ops[i].key, want[b].ops[i].key);
      EXPECT_EQ(got[b].ops[i].value, want[b].ops[i].value);
    }
  }
}

TEST_F(UpdateLogTest, EncodeIsPackedAndSized) {
  const auto ops = sample_ops(1, 5);
  const std::string rec = UpdateLog::encode(9, ops);
  EXPECT_EQ(rec.size(), kRecordHeaderBytes + 5 * kOpBytes);
  // The published framing constants match the encoder (the replica
  // catch-up path costs log shipping with them).
  EXPECT_EQ(UpdateLog::kRecordFixedBytes, kRecordHeaderBytes);
  EXPECT_EQ(UpdateLog::kOpBytes, kOpBytes);
  // Little-endian "HLOG" magic leads the record.
  EXPECT_EQ(static_cast<unsigned char>(rec[0]), 0x47);  // 'G'
  EXPECT_EQ(static_cast<unsigned char>(rec[1]), 0x4F);  // 'O'
  EXPECT_EQ(static_cast<unsigned char>(rec[2]), 0x4C);  // 'L'
  EXPECT_EQ(static_cast<unsigned char>(rec[3]), 0x48);  // 'H'
}

TEST_F(UpdateLogTest, AppendReplayRoundTrip) {
  const auto sample = sample_log();
  UpdateLog log(path_);
  for (const auto& b : sample.batches) log.append(b.epoch, b.ops);

  const auto replay = UpdateLog::replay(path_);
  expect_batches_equal(replay.batches, sample.batches, sample.batches.size());
  EXPECT_EQ(replay.ops, 3u + 4u + 5u);
  EXPECT_EQ(replay.valid_bytes, sample.bytes.size());
  EXPECT_EQ(replay.total_bytes, sample.bytes.size());
  EXPECT_FALSE(replay.torn_tail);
}

TEST_F(UpdateLogTest, MissingFileIsEmptyReplay) {
  const auto replay = UpdateLog::replay(dir_ / "never-written.log");
  EXPECT_TRUE(replay.batches.empty());
  EXPECT_EQ(replay.valid_bytes, 0u);
  EXPECT_EQ(replay.total_bytes, 0u);
  EXPECT_FALSE(replay.torn_tail);
}

TEST_F(UpdateLogTest, EmptyOpsRecordRoundTrips) {
  UpdateLog log(path_);
  log.append(1, {});
  log.append(2, sample_ops(2, 1));
  const auto replay = UpdateLog::replay(path_);
  ASSERT_EQ(replay.batches.size(), 2u);
  EXPECT_TRUE(replay.batches[0].ops.empty());
  EXPECT_EQ(replay.batches[1].epoch, 2u);
}

// The central crash property: for every possible truncation length, the
// replay returns exactly the records that are fully on disk, flags the
// torn tail, and reports the valid prefix that truncate() would keep.
TEST_F(UpdateLogTest, TruncationAtEveryByteKeepsIntactPrefix) {
  const auto sample = sample_log();
  for (std::size_t len = 0; len <= sample.bytes.size(); ++len) {
    write_bytes(sample.bytes.substr(0, len));
    const auto replay = UpdateLog::replay(path_);

    std::size_t complete = 0;
    std::size_t prefix_bytes = 0;
    while (complete < sample.boundaries.size() &&
           sample.boundaries[complete] <= len) {
      prefix_bytes = sample.boundaries[complete];
      ++complete;
    }
    ASSERT_NO_FATAL_FAILURE(
        expect_batches_equal(replay.batches, sample.batches, complete))
        << "truncated to " << len << " bytes";
    EXPECT_EQ(replay.valid_bytes, prefix_bytes) << "len " << len;
    EXPECT_EQ(replay.total_bytes, len) << "len " << len;
    EXPECT_EQ(replay.torn_tail, len != prefix_bytes) << "len " << len;
  }
}

// A flip anywhere in record r must stop replay at or before r: the crc
// (or magic/epoch check) rejects the record, everything earlier decodes
// untouched, and replay never throws or fabricates ops.
TEST_F(UpdateLogTest, BitFlipAtEveryByteStopsBeforeDamage) {
  const auto sample = sample_log();
  for (std::size_t pos = 0; pos < sample.bytes.size(); ++pos) {
    std::string bytes = sample.bytes;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x20);
    write_bytes(bytes);
    const auto replay = UpdateLog::replay(path_);

    // Record index the flipped byte falls in.
    std::size_t damaged = 0;
    while (sample.boundaries[damaged] <= pos) ++damaged;
    EXPECT_LE(replay.batches.size(), damaged) << "flip at " << pos;
    EXPECT_TRUE(replay.torn_tail) << "flip at " << pos;
    ASSERT_NO_FATAL_FAILURE(
        expect_batches_equal(replay.batches, sample.batches, replay.batches.size()))
        << "flip at " << pos;
  }
}

TEST_F(UpdateLogTest, TruncateRepairsTornTail) {
  const auto sample = sample_log();
  // Chop into the middle of the last record.
  write_bytes(sample.bytes.substr(0, sample.bytes.size() - 7));
  auto replay = UpdateLog::replay(path_);
  ASSERT_TRUE(replay.torn_tail);
  ASSERT_EQ(replay.batches.size(), 2u);

  UpdateLog::truncate(path_, replay.valid_bytes);
  replay = UpdateLog::replay(path_);
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_EQ(replay.batches.size(), 2u);
  EXPECT_EQ(replay.valid_bytes, replay.total_bytes);
}

TEST_F(UpdateLogTest, NonIncreasingEpochStopsReplay) {
  // Stale records from an older generation must not replay twice: the
  // epoch sequence is strictly increasing, so a repeat (or decrease)
  // ends the valid prefix.
  std::string bytes = UpdateLog::encode(4, sample_ops(1, 2));
  const std::size_t first = bytes.size();
  bytes += UpdateLog::encode(4, sample_ops(2, 2));
  bytes += UpdateLog::encode(5, sample_ops(3, 2));
  write_bytes(bytes);
  const auto replay = UpdateLog::replay(path_);
  ASSERT_EQ(replay.batches.size(), 1u);
  EXPECT_EQ(replay.batches[0].epoch, 4u);
  EXPECT_EQ(replay.valid_bytes, first);
  EXPECT_TRUE(replay.torn_tail);
}

TEST_F(UpdateLogTest, BadOpKindStopsReplay) {
  // A record whose body decodes but holds an unknown op kind is treated
  // as torn even when its crc matches (a same-version decoder must never
  // hand recovery an op it cannot apply).
  std::string good = UpdateLog::encode(1, sample_ops(1, 2));
  std::string bad = UpdateLog::encode(2, sample_ops(2, 2));
  // Kind byte of op 0 lives right after the fixed header; patch it and
  // recompute nothing — instead patch both kind and crc is fiddly, so
  // build the record manually from a patched body.
  const std::size_t kind_off = kRecordHeaderBytes;
  bad[kind_off] = 7;  // not a valid OpKind
  // Fix the crc so only the kind check can reject it.
  {
    const std::string body = bad.substr(8);
    const auto crc = fault::crc32(body.data(), body.size());
    bad[4] = static_cast<char>(crc & 0xff);
    bad[5] = static_cast<char>((crc >> 8) & 0xff);
    bad[6] = static_cast<char>((crc >> 16) & 0xff);
    bad[7] = static_cast<char>((crc >> 24) & 0xff);
  }
  write_bytes(good + bad);
  const auto replay = UpdateLog::replay(path_);
  ASSERT_EQ(replay.batches.size(), 1u);
  EXPECT_EQ(replay.batches[0].epoch, 1u);
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_EQ(replay.valid_bytes, good.size());
}

TEST_F(UpdateLogTest, HugeCountFieldFailsFastNotAllocates) {
  // A corrupted count field must end the prefix, not drive a giant read.
  std::string rec = UpdateLog::encode(1, sample_ops(1, 1));
  rec[16] = static_cast<char>(0xff);  // count low byte
  rec[17] = static_cast<char>(0xff);
  rec[18] = static_cast<char>(0xff);
  rec[19] = static_cast<char>(0x7f);
  write_bytes(rec);
  const auto replay = UpdateLog::replay(path_);
  EXPECT_TRUE(replay.batches.empty());
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_EQ(replay.valid_bytes, 0u);
}

}  // namespace
}  // namespace harmonia::persist
