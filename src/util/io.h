// util::io — the filesystem seam every durable artifact is written
// through.
//
// Production code writes snapshots, integration results and write-ahead
// journals through an abstract Env instead of calling the filesystem
// directly. That buys two things:
//
//   1. One place that gets the hard parts right. POSIX write(2) may write
//      fewer bytes than asked or return EINTR; fsync can fail; rename is
//      the only atomic publication primitive. RealEnv implements the
//      resume loops and carries strerror(errno) detail in every error, so
//      call sites never re-derive that lore.
//   2. Deterministic fault injection. FaultInjectionEnv wraps another Env
//      and fails operations on a precise schedule — the Nth append (with
//      an optional short write of k bytes first), the Nth fsync, the Nth
//      rename, ENOSPC, EINTR-shaped partial writes, and whole-process
//      "crash" points (after N operations, or mid-append at a global byte
//      offset, leaving a torn prefix on disk). The crash-point sweep
//      suites kill a write sequence at every boundary and prove recovery
//      is exact; without the seam those schedules are unreproducible.
//
// AtomicFileWriter packages the atomic-publication ritual (unique tmp name
// → write → fsync → rename over the final name → directory fsync) that
// snapshot_store and integration_io used to hand-roll separately. A crash
// at any point leaves either the complete old file or the complete new
// file under the final name, never a torn hybrid.
#ifndef XSM_UTIL_IO_H_
#define XSM_UTIL_IO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "util/status.h"

namespace xsm::util::io {

/// Sequential append handle. Append either persists every byte or fails
/// typed; Sync flushes to stable storage (data loss after an OK Sync means
/// the device lied, not this library).
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(std::string_view data) = 0;
  virtual Status Sync() = 0;
  /// Idempotent; the destructor closes too (without surfacing errors — call
  /// Close explicitly on paths that must observe them).
  virtual Status Close() = 0;
};

/// Abstract filesystem. All paths are interpreted by the underlying
/// implementation (RealEnv: the host filesystem).
class Env {
 public:
  virtual ~Env() = default;

  /// Opens `path` for writing: truncate=true starts empty (creating the
  /// file), truncate=false appends to what exists (creating if absent).
  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) = 0;

  virtual Result<std::string> ReadFileToString(const std::string& path) = 0;

  /// Atomic within a filesystem; replaces `to` if it exists.
  virtual Status RenameFile(const std::string& from,
                            const std::string& to) = 0;
  virtual Status RemoveFile(const std::string& path) = 0;
  /// Truncates an existing file to exactly `size` bytes.
  virtual Status TruncateFile(const std::string& path, uint64_t size) = 0;
  /// Flushes a directory entry table (making renames/creates durable).
  /// Best-effort on filesystems that refuse directory fsync.
  virtual Status SyncDir(const std::string& path) = 0;
  virtual bool FileExists(const std::string& path) = 0;
  virtual Result<uint64_t> FileSize(const std::string& path) = 0;

  /// The process-wide real-filesystem Env (never null, never destroyed).
  static Env* Default();
};

/// The directory part of `path` ("." when there is no '/').
std::string DirnameOf(const std::string& path);

/// Atomic file publication through an Env. Stages bytes into
/// `<final>.tmp.<pid>.<seq>`; Commit() fsyncs the data, renames it over
/// the final name and fsyncs the directory. If the writer dies without
/// Commit (error or destructor), the tmp file is removed and the final
/// name is untouched.
class AtomicFileWriter {
 public:
  AtomicFileWriter(Env* env, std::string final_path);
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// First error (open or append) latches; later calls return it.
  Status Append(std::string_view data);

  /// fsync + rename + directory fsync. After OK the final name durably
  /// holds exactly the appended bytes. After an error the final name is
  /// whatever it was before (the tmp file is cleaned up). With `keep_open`
  /// the staged file stays open and its handle — now on the final name —
  /// is handed over, so no reopen can fail after the rename.
  Status Commit(std::unique_ptr<WritableFile>* keep_open = nullptr);

  /// Removes the staged tmp file; idempotent, called by the destructor.
  void Abort();

  const std::string& tmp_path() const { return tmp_path_; }

  /// One-shot convenience: stage `bytes` and commit.
  static Status WriteFileAtomic(Env* env, const std::string& path,
                                std::string_view bytes);

 private:
  Env* env_;
  std::string final_path_;
  std::string tmp_path_;
  std::unique_ptr<WritableFile> file_;
  Status pending_;    // first staging error
  bool committed_ = false;
};

// --- fault injection --------------------------------------------------------

/// One deterministic failure/crash schedule. Operation ordinals are
/// 0-based and counted per kind across the whole Env (appends count every
/// WritableFile::Append call; syncs count file Sync + SyncDir; renames
/// count RenameFile). -1 disables a rule.
struct FaultPlan {
  /// Fail the Nth Append with `append_error` after persisting
  /// `append_persist_bytes` of that append's data (a short/torn write;
  /// 0 = nothing persisted).
  int64_t fail_append_at = -1;
  size_t append_persist_bytes = 0;
  StatusCode append_error = StatusCode::kIOError;
  /// Message detail for the injected append failure ("No space left on
  /// device" for an ENOSPC drill, ...).
  std::string append_detail = "injected write failure";

  /// Fail the Nth Sync (file fsync or directory fsync).
  int64_t fail_sync_at = -1;
  /// Fail the Nth RenameFile.
  int64_t fail_rename_at = -1;

  /// Deliver every Append in two chunks with a simulated EINTR between
  /// them — exercises the resume path; the write still succeeds and the
  /// bytes must be identical.
  bool eintr_splits = false;

  /// Simulated kill: once the total bytes appended through this Env reach
  /// this offset, the in-flight append persists only up to the boundary
  /// (a torn record) and every later operation fails with
  /// "simulated crash". What is on disk afterwards is exactly what a
  /// SIGKILL at that write would have left.
  int64_t crash_at_byte = -1;
  /// Simulated kill between operations: after this many successful
  /// operations (of any kind), every operation fails. Catches the
  /// boundaries crash_at_byte cannot (between fsync and rename, ...).
  int64_t crash_after_ops = -1;
};

/// Counters a test reads back to discover a run's write-boundary universe
/// (total ops / bytes) before sweeping crash points across it.
struct FaultStats {
  int64_t appends = 0;
  int64_t syncs = 0;
  int64_t renames = 0;
  int64_t ops = 0;             ///< all counted operations
  int64_t bytes_appended = 0;  ///< bytes actually persisted
  int64_t eintr_injected = 0;
  bool crashed = false;        ///< a crash rule has triggered
};

/// Env decorator applying a FaultPlan to a base Env (default: the real
/// one). Reads are passed through unscathed — recovery code under test
/// reads real bytes; only mutations are scheduled. Not thread-safe: fault
/// schedules are meaningful only for single-threaded scripted sequences.
class FaultInjectionEnv : public Env {
 public:
  explicit FaultInjectionEnv(FaultPlan plan, Env* base = nullptr);

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override;
  Result<std::string> ReadFileToString(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  Status TruncateFile(const std::string& path, uint64_t size) override;
  Status SyncDir(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Result<uint64_t> FileSize(const std::string& path) override;

  const FaultStats& stats() const { return stats_; }
  /// True once a crash rule has fired (every further mutation fails).
  bool crashed() const { return stats_.crashed; }

 private:
  friend class FaultInjectedFile;

  /// Charges one operation against the crash-after-ops budget. Returns
  /// non-OK when the process is "dead".
  Status ChargeOp();

  FaultPlan plan_;
  Env* base_;
  FaultStats stats_;
};

}  // namespace xsm::util::io

#endif  // XSM_UTIL_IO_H_
