// xsm::wal — a crash-safe, CRC-32C-checksummed, record-framed write-ahead
// journal.
//
// The snapshot store (PR 5) makes durability a point event: state is safe
// exactly when someone calls SaveSnapshot. Everything ingested since the
// last save dies with the process. The WAL closes that window: each
// validated repository delta is appended here — framed, checksummed, and
// fsync'd — *before* its generation is published, so an acknowledged delta
// is always recoverable. Warm-start boot becomes "load snapshot, replay
// journal suffix" (live::ReplayJournal), provably
// fingerprint- and query-identical to an uninterrupted chain.
//
// File format (magic "XSMWAL0\0", little-endian, format version 1):
//
//   header   magic[8] | u32 version | u64 base_generation
//            | u64 base_fingerprint | u32 crc32c(the three fields)
//   record   u32 crc32c(payload) | u32 type | u64 payload_size | payload
//
// base_generation/base_fingerprint name the snapshot generation the
// journal extends; records carry their own framing so the reader needs no
// index. Appends are fsync'd one record at a time.
//
// Damage taxonomy — the part that makes crash recovery sound:
//   - A *truncated tail* (incomplete frame, or a payload shorter than its
//     frame claims) is the expected artifact of a kill mid-append. It is
//     NOT an error: ReadWal returns the intact prefix with torn_tail set,
//     and WalWriter::Open truncates the tail before appending again.
//   - A *complete* record whose CRC fails, or an unknown record type, can
//     only mean bit rot or tampering — appends are sequential, so a crash
//     tears only the tail. That is typed kCorruption, never silently
//     skipped.
//   - Header damage is kParseError (bad magic) / kCorruption (bad CRC,
//     truncation); a newer format version is kUnimplemented.
#ifndef XSM_WAL_WAL_H_
#define XSM_WAL_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/io.h"
#include "util/status.h"

namespace xsm::wal {

/// Format version this build writes (and the newest it reads).
inline constexpr uint32_t kWalFormatVersion = 1;

/// Bytes of the fixed file header (magic + fields + crc).
inline constexpr size_t kWalHeaderSize = 8 + 4 + 8 + 8 + 4;
/// Bytes of one record's frame (crc + type + payload_size).
inline constexpr size_t kWalRecordFrameSize = 4 + 4 + 8;

enum class RecordType : uint32_t {
  kDelta = 1,  ///< one journaled RepositoryDelta (live::delta_codec bytes)
};

struct WalInfo {
  uint32_t format_version = 0;
  uint64_t base_generation = 0;
  uint64_t base_fingerprint = 0;
};

struct WalRecord {
  RecordType type = RecordType::kDelta;
  std::string payload;
};

struct WalReadResult {
  WalInfo info;
  std::vector<WalRecord> records;
  /// Header + every intact record: the offset WalWriter::Open appends at.
  uint64_t valid_bytes = 0;
  /// True when a truncated trailing record (crash artifact) was dropped.
  bool torn_tail = false;
  /// Bytes past valid_bytes that the torn tail occupied.
  uint64_t dropped_bytes = 0;
};

/// Append handle over one journal file. Not thread-safe; its owner
/// (service::Matcher) serializes appends with its write lock.
class WalWriter {
 public:
  /// Atomically replaces `path` with a fresh, empty journal based at
  /// (base_generation, base_fingerprint) — the compaction step after a
  /// successful checkpoint. A crash during Create leaves either the old
  /// journal or the new one, never a hybrid; an error leaves the old one
  /// (the staged file's handle is kept, so nothing fails after the rename).
  static Result<std::unique_ptr<WalWriter>> Create(
      util::io::Env* env, const std::string& path, uint64_t base_generation,
      uint64_t base_fingerprint);

  /// Opens an existing journal for appending after `read` validated it
  /// (typically ReadWal's result). A torn tail is truncated away first so
  /// the next record lands on a clean boundary.
  static Result<std::unique_ptr<WalWriter>> Open(util::io::Env* env,
                                                 const std::string& path,
                                                 const WalReadResult& read);

  /// Frames, appends, and fsyncs one record. After OK the record survives
  /// a kill; after an error nothing of the record is considered written
  /// (a torn prefix on disk is dropped by the next recovery).
  ///
  /// Fails closed: after any failed write or fsync the file's state is
  /// unknown (a torn frame may sit where the next record would go, and a
  /// failed fsync may have dropped dirty pages the page cache still shows),
  /// so the writer is poisoned. Every later Append returns
  /// kFailedPrecondition naming the first failure, and a failed fsync is
  /// never retried on the same file. Only a fresh writer (Create — the
  /// compaction after a checkpoint) journals again. A record written whole
  /// whose fsync failed is truncated away (best effort) so recovery cannot
  /// replay a refused delta; recovery drops a torn one as a torn tail.
  Status Append(RecordType type, std::string_view payload);

  const WalInfo& info() const { return info_; }
  /// Bytes of the journal including everything appended so far.
  uint64_t size_bytes() const { return size_bytes_; }
  size_t records_appended() const { return records_appended_; }

 private:
  WalWriter(util::io::Env* env, std::string path,
            std::unique_ptr<util::io::WritableFile> file, WalInfo info,
            uint64_t size_bytes)
      : env_(env), path_(std::move(path)), file_(std::move(file)),
        info_(info), size_bytes_(size_bytes) {}

  util::io::Env* env_;
  std::string path_;
  std::unique_ptr<util::io::WritableFile> file_;
  WalInfo info_;
  uint64_t size_bytes_;
  size_t records_appended_ = 0;
  /// OK until an Append fails; then the refusal every later Append returns.
  Status poisoned_;
};

/// Serializes a header-only journal (used by Create; exposed for tests).
std::string SerializeWalHeader(uint64_t base_generation,
                               uint64_t base_fingerprint);

/// Parses and validates journal bytes per the damage taxonomy above.
Result<WalReadResult> ParseWal(std::string_view bytes);

/// ReadFileToString + ParseWal. A missing file is kNotFound (callers
/// distinguish "no journal yet" from damage).
Result<WalReadResult> ReadWal(util::io::Env* env, const std::string& path);

}  // namespace xsm::wal

#endif  // XSM_WAL_WAL_H_
