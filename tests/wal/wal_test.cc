// xsm::wal — journal format round trips plus the damage taxonomy: torn
// tails at every truncation offset are recovered from (expected crash
// artifacts), while every complete-but-damaged artifact is refused with
// a typed status, never silently skipped.
#include "wal/wal.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "util/io.h"
#include "util/status.h"

namespace xsm::wal {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("xsm_wal_test_" + tag + "_" +
              std::to_string(static_cast<unsigned>(getpid()))))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string File(const std::string& name) const {
    return (fs::path(path_) / name).string();
  }

 private:
  std::string path_;
};

util::io::Env* env() { return util::io::Env::Default(); }

std::string ReadBytes(const std::string& path) {
  auto bytes = env()->ReadFileToString(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? *bytes : std::string();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  ASSERT_TRUE(
      util::io::AtomicFileWriter::WriteFileAtomic(env(), path, bytes).ok());
}

// Builds a journal with the given payloads and returns its bytes.
std::string BuildJournal(TempDir& dir, const std::vector<std::string>& payloads,
                         uint64_t base_generation = 7,
                         uint64_t base_fingerprint = 0xfeedface) {
  const std::string path = dir.File("build.wal");
  auto writer = WalWriter::Create(env(), path, base_generation,
                                  base_fingerprint);
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  for (const auto& payload : payloads) {
    EXPECT_TRUE((*writer)->Append(RecordType::kDelta, payload).ok());
  }
  return ReadBytes(path);
}

TEST(WalTest, CreateWritesParsableEmptyJournal) {
  TempDir dir("create");
  const std::string path = dir.File("j.wal");
  auto writer = WalWriter::Create(env(), path, 42, 0xabcdef);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  EXPECT_EQ((*writer)->info().base_generation, 42u);
  EXPECT_EQ((*writer)->size_bytes(), kWalHeaderSize);

  auto read = ReadWal(env(), path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->info.format_version, kWalFormatVersion);
  EXPECT_EQ(read->info.base_generation, 42u);
  EXPECT_EQ(read->info.base_fingerprint, 0xabcdefu);
  EXPECT_TRUE(read->records.empty());
  EXPECT_FALSE(read->torn_tail);
  EXPECT_EQ(read->valid_bytes, kWalHeaderSize);
}

TEST(WalTest, AppendReadRoundTrip) {
  TempDir dir("roundtrip");
  const std::string path = dir.File("j.wal");
  auto writer = WalWriter::Create(env(), path, 1, 2);
  ASSERT_TRUE(writer.ok());
  const std::vector<std::string> payloads = {"first", "", "third payload",
                                             std::string(1000, 'x')};
  for (const auto& payload : payloads) {
    ASSERT_TRUE((*writer)->Append(RecordType::kDelta, payload).ok());
  }
  EXPECT_EQ((*writer)->records_appended(), payloads.size());

  auto read = ReadWal(env(), path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->records.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(read->records[i].type, RecordType::kDelta);
    EXPECT_EQ(read->records[i].payload, payloads[i]);
  }
  EXPECT_FALSE(read->torn_tail);
  auto size = env()->FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(read->valid_bytes, *size);
}

TEST(WalTest, MissingJournalIsNotFound) {
  TempDir dir("missing");
  auto read = ReadWal(env(), dir.File("nope.wal"));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

// Every possible kill offset mid-append yields a recoverable journal: the
// intact prefix parses, the torn tail is reported and dropped, never an
// error. This is the core "a crash tears only the tail" property.
TEST(WalTest, TruncationSweepEveryOffsetIsTornTailNotError) {
  TempDir dir("sweep");
  const std::string full =
      BuildJournal(dir, {"alpha", "beta payload", "gamma"});
  const std::string path = dir.File("torn.wal");

  // First find the two record boundaries so we know the expected intact
  // record count at each offset.
  auto whole = ParseWal(full);
  ASSERT_TRUE(whole.ok());
  ASSERT_EQ(whole->records.size(), 3u);
  std::vector<size_t> boundaries = {kWalHeaderSize};
  for (const auto& record : whole->records) {
    boundaries.push_back(boundaries.back() + kWalRecordFrameSize +
                         record.payload.size());
  }
  ASSERT_EQ(boundaries.back(), full.size());

  for (size_t cut = kWalHeaderSize; cut < full.size(); ++cut) {
    WriteBytes(path, full.substr(0, cut));
    auto read = ReadWal(env(), path);
    ASSERT_TRUE(read.ok()) << "cut=" << cut << ": " << read.status().ToString();
    size_t expect_records = 0;
    while (expect_records + 1 < boundaries.size() &&
           boundaries[expect_records + 1] <= cut) {
      ++expect_records;
    }
    EXPECT_EQ(read->records.size(), expect_records) << "cut=" << cut;
    EXPECT_EQ(read->valid_bytes, boundaries[expect_records]) << "cut=" << cut;
    const bool expect_torn = cut != boundaries[expect_records];
    EXPECT_EQ(read->torn_tail, expect_torn) << "cut=" << cut;
    EXPECT_EQ(read->dropped_bytes, cut - boundaries[expect_records])
        << "cut=" << cut;
  }
}

// A bit flip anywhere in a record must never yield that record back as
// intact: flips in the CRC, type, or payload are typed kCorruption; a
// flip in the size field is physically indistinguishable from a torn
// tail (the payload looks shorter than its frame claims), so the parser
// may report torn_tail — but then the record is dropped, not served.
TEST(WalTest, BitFlipInCompleteRecordNeverSurvives) {
  TempDir dir("bitflip");
  const std::string full = BuildJournal(dir, {"sensitive payload"});
  for (size_t i = kWalHeaderSize; i < full.size(); ++i) {
    std::string damaged = full;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x40);
    auto read = ParseWal(damaged);
    if (read.ok()) {
      EXPECT_TRUE(read->torn_tail) << "flip at byte " << i;
      EXPECT_TRUE(read->records.empty()) << "flip at byte " << i;
    } else {
      EXPECT_EQ(read.status().code(), StatusCode::kCorruption)
          << "flip at byte " << i << ": " << read.status().ToString();
    }
  }
}

TEST(WalTest, BadMagicIsParseError) {
  TempDir dir("magic");
  std::string bytes = BuildJournal(dir, {});
  bytes[0] = 'Y';
  auto read = ParseWal(bytes);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kParseError);
}

TEST(WalTest, HeaderDamage) {
  TempDir dir("header");
  const std::string bytes = BuildJournal(dir, {});

  // Truncated header: kCorruption.
  for (size_t cut = 0; cut < kWalHeaderSize; ++cut) {
    if (cut >= 1 && cut < 8) continue;  // still inside magic → ParseError ok
    auto read = ParseWal(bytes.substr(0, cut));
    ASSERT_FALSE(read.ok()) << "cut=" << cut;
  }

  // Flipped header field byte (base_generation): CRC catches it.
  std::string damaged = bytes;
  damaged[12] = static_cast<char>(damaged[12] ^ 0x01);
  auto read = ParseWal(damaged);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
}

TEST(WalTest, FutureFormatVersionIsUnimplemented) {
  // The version gate fires before the header CRC check, so a journal from
  // a future build is refused kUnimplemented (upgrade advice), not
  // mistaken for damage.
  std::string bytes = SerializeWalHeader(1, 2);
  ASSERT_EQ(bytes.size(), kWalHeaderSize);
  bytes[8] = static_cast<char>(kWalFormatVersion + 1);  // little-endian LSB
  auto read = ParseWal(bytes);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kUnimplemented)
      << read.status().ToString();
}

TEST(WalTest, OpenTruncatesTornTailAndAppendsCleanly) {
  TempDir dir("reopen");
  const std::string full = BuildJournal(dir, {"one", "two"});
  const std::string path = dir.File("j.wal");
  // Simulate a crash 5 bytes into a third record's frame.
  WriteBytes(path, full + std::string(5, '\x7f'));

  auto read = ReadWal(env(), path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->torn_tail);
  EXPECT_EQ(read->dropped_bytes, 5u);
  ASSERT_EQ(read->records.size(), 2u);

  auto writer = WalWriter::Open(env(), path, *read);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE((*writer)->Append(RecordType::kDelta, "three").ok());

  auto after = ReadWal(env(), path);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after->torn_tail);
  ASSERT_EQ(after->records.size(), 3u);
  EXPECT_EQ(after->records[2].payload, "three");
}

TEST(WalTest, CreateAtomicallyReplacesExistingJournal) {
  TempDir dir("replace");
  const std::string path = dir.File("j.wal");
  {
    auto writer = WalWriter::Create(env(), path, 1, 11);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(RecordType::kDelta, "stale").ok());
  }
  // Compaction: a fresh journal based at a later checkpoint replaces it.
  auto writer = WalWriter::Create(env(), path, 9, 99);
  ASSERT_TRUE(writer.ok());
  auto read = ReadWal(env(), path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->info.base_generation, 9u);
  EXPECT_EQ(read->info.base_fingerprint, 99u);
  EXPECT_TRUE(read->records.empty());
}

TEST(WalTest, AppendFailureLeavesRecoverableJournal) {
  TempDir dir("appendfail");
  const std::string path = dir.File("j.wal");
  // Build a valid one-record journal with the real env...
  {
    auto writer = WalWriter::Create(env(), path, 3, 33);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(RecordType::kDelta, "durable").ok());
  }
  auto read = ReadWal(env(), path);
  ASSERT_TRUE(read.ok());

  // ...then reopen under fault injection: the very next append dies after
  // persisting a torn 3-byte prefix of the frame.
  util::io::FaultPlan plan;
  plan.fail_append_at = 0;
  plan.append_persist_bytes = 3;
  util::io::FaultInjectionEnv faulty(plan);
  auto writer = WalWriter::Open(&faulty, path, *read);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  Status append = (*writer)->Append(RecordType::kDelta, "lost");
  ASSERT_FALSE(append.ok());
  EXPECT_EQ(append.code(), StatusCode::kIOError);

  // Recovery sees the durable record and drops the torn prefix.
  auto after = ReadWal(env(), path);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after->records.size(), 1u);
  EXPECT_EQ(after->records[0].payload, "durable");
  EXPECT_TRUE(after->torn_tail);
  EXPECT_EQ(after->dropped_bytes, 3u);
}

// A failed fsync leaves the file's durable state unknown, so the writer
// fails closed: it refuses every later append, typed and naming the first
// failure, and never fsyncs that file again.
TEST(WalTest, FailedSyncPoisonsTheWriter) {
  TempDir dir("syncfail");
  const std::string path = dir.File("j.wal");
  ASSERT_TRUE(WalWriter::Create(env(), path, 3, 33).ok());
  auto read = ReadWal(env(), path);
  ASSERT_TRUE(read.ok());

  util::io::FaultPlan plan;
  plan.fail_sync_at = 0;
  util::io::FaultInjectionEnv faulty(plan);
  auto writer = WalWriter::Open(&faulty, path, *read);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  Status append = (*writer)->Append(RecordType::kDelta, "unsynced");
  ASSERT_FALSE(append.ok());
  EXPECT_EQ(append.code(), StatusCode::kIOError);
  EXPECT_EQ((*writer)->records_appended(), 0u);

  for (int i = 0; i < 2; ++i) {
    Status refused = (*writer)->Append(RecordType::kDelta, "later");
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(refused.message().find("injected"), std::string::npos)
        << refused.ToString();
  }
  EXPECT_EQ(faulty.stats().syncs, 1) << "a failed fsync is never retried";
  EXPECT_EQ(faulty.stats().appends, 2) << "refused appends write nothing";
}

}  // namespace
}  // namespace xsm::wal
