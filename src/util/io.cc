#include "util/io.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace xsm::util::io {

namespace {

std::string ErrnoDetail(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

#if defined(__unix__) || defined(__APPLE__)

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path)
      : fd_(fd), path_(std::move(path)) {}

  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(std::string_view data) override {
    if (fd_ < 0) return Status::FailedPrecondition(path_ + " is closed");
    // write(2) may persist fewer bytes than asked or be interrupted;
    // resume until everything landed or a real error surfaced.
    while (!data.empty()) {
      const ssize_t n = ::write(fd_, data.data(), data.size());
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(ErrnoDetail("cannot write", path_));
      }
      data.remove_prefix(static_cast<size_t>(n));
    }
    return Status::OK();
  }

  Status Sync() override {
    if (fd_ < 0) return Status::FailedPrecondition(path_ + " is closed");
    if (::fsync(fd_) != 0) {
      return Status::IOError(ErrnoDetail("fsync failure on", path_));
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    const int rc = ::close(fd_);
    fd_ = -1;
    if (rc != 0) {
      return Status::IOError(ErrnoDetail("close failure on", path_));
    }
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

class RealEnv : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    const int flags =
        O_WRONLY | O_CREAT | O_CLOEXEC | (truncate ? O_TRUNC : O_APPEND);
    const int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) {
      return Status::IOError(
          ErrnoDetail("cannot open for writing", path));
    }
    return std::unique_ptr<WritableFile>(
        std::make_unique<PosixWritableFile>(fd, path));
  }

  Result<std::string> ReadFileToString(const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      return Status::IOError(ErrnoDetail("cannot open", path));
    }
    std::string bytes;
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n > 0) {
        bytes.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) break;
      if (errno == EINTR) continue;
      const Status status =
          Status::IOError(ErrnoDetail("read failure on", path));
      ::close(fd);
      return status;
    }
    ::close(fd);
    return bytes;
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return Status::IOError("cannot rename " + from + " to " + to + ": " +
                             std::strerror(errno));
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) {
      return Status::IOError(ErrnoDetail("cannot remove", path));
    }
    return Status::OK();
  }

  Status TruncateFile(const std::string& path, uint64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      return Status::IOError(ErrnoDetail("cannot truncate", path));
    }
    return Status::OK();
  }

  Status SyncDir(const std::string& path) override {
    const int fd = ::open(path.empty() ? "." : path.c_str(),
                          O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) {
      return Status::IOError(ErrnoDetail("cannot open directory", path));
    }
    // Directory fsync is refused by some filesystems; publication already
    // happened via rename, so a refusal downgrades durability, not
    // correctness — report it and let the caller decide.
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) {
      return Status::IOError(ErrnoDetail("fsync failure on directory", path));
    }
    return Status::OK();
  }

  bool FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }

  Result<uint64_t> FileSize(const std::string& path) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      return Status::IOError(ErrnoDetail("cannot stat", path));
    }
    return static_cast<uint64_t>(st.st_size);
  }
};

#else
#error "util::io requires a POSIX platform"
#endif

}  // namespace

Env* Env::Default() {
  static RealEnv* real = new RealEnv();  // never destroyed: used at exit
  return real;
}

std::string DirnameOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

// --- AtomicFileWriter -------------------------------------------------------

AtomicFileWriter::AtomicFileWriter(Env* env, std::string final_path)
    : env_(env), final_path_(std::move(final_path)) {
  // Unique tmp name (pid + in-process counter): concurrent stagers for the
  // same final path — other threads or other processes — must never
  // interleave into one tmp file (last rename wins whole, never mixed).
  static std::atomic<uint64_t> counter{0};
#if defined(__unix__) || defined(__APPLE__)
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  tmp_path_ = final_path_ + ".tmp." + std::to_string(pid) + "." +
              std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

AtomicFileWriter::~AtomicFileWriter() { Abort(); }

Status AtomicFileWriter::Append(std::string_view data) {
  if (!pending_.ok()) return pending_;
  if (committed_) {
    return Status::FailedPrecondition("already committed: " + final_path_);
  }
  if (file_ == nullptr) {
    auto file = env_->NewWritableFile(tmp_path_, /*truncate=*/true);
    if (!file.ok()) {
      pending_ = file.status();
      return pending_;
    }
    file_ = std::move(*file);
  }
  pending_ = file_->Append(data);
  return pending_;
}

Status AtomicFileWriter::Commit(std::unique_ptr<WritableFile>* keep_open) {
  if (!pending_.ok()) {
    Status first = pending_;
    Abort();
    return first;
  }
  if (committed_) {
    return Status::FailedPrecondition("already committed: " + final_path_);
  }
  if (file_ == nullptr) {
    // Zero appends still publishes an (empty) file atomically.
    auto file = env_->NewWritableFile(tmp_path_, /*truncate=*/true);
    if (!file.ok()) {
      pending_ = file.status();
      return file.status();
    }
    file_ = std::move(*file);
  }
  // Data must be durable before the rename publishes the name: a power
  // loss after an unsynced rename can leave the final name pointing at
  // zero-length data while the previous file is already gone.
  Status status = file_->Sync();
  if (status.ok() && keep_open == nullptr) status = file_->Close();
  if (status.ok()) status = env_->RenameFile(tmp_path_, final_path_);
  if (!status.ok()) {
    pending_ = status;
    Abort();
    return status;
  }
  committed_ = true;
  if (keep_open != nullptr) {
    *keep_open = std::move(file_);
  } else {
    file_.reset();
  }
  // Directory durability is best-effort: the rename already published
  // atomically; a directory-fsync refusal must not un-publish it.
  (void)env_->SyncDir(DirnameOf(final_path_));
  return Status::OK();
}

void AtomicFileWriter::Abort() {
  if (committed_) return;
  if (file_ != nullptr) {
    (void)file_->Close();
    file_.reset();
  }
  if (env_->FileExists(tmp_path_)) (void)env_->RemoveFile(tmp_path_);
  if (pending_.ok()) {
    pending_ = Status::FailedPrecondition("aborted: " + final_path_);
  }
}

Status AtomicFileWriter::WriteFileAtomic(Env* env, const std::string& path,
                                         std::string_view bytes) {
  AtomicFileWriter writer(env, path);
  XSM_RETURN_NOT_OK(writer.Append(bytes));
  return writer.Commit();
}

// --- FaultInjectionEnv ------------------------------------------------------

namespace {

Status SimulatedCrash() {
  return Status::IOError("simulated crash (fault injection)");
}

Status MakeInjected(StatusCode code, const std::string& detail,
                    const std::string& path) {
  const std::string message = detail + " (injected) on " + path;
  switch (code) {
    case StatusCode::kIOError:
      return Status::IOError(message);
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(message);
    default:
      return Status::Internal(message);
  }
}

}  // namespace

/// WritableFile decorator: consults the plan before handing bytes to the
/// base file, so short writes and crashes leave real torn prefixes on
/// disk for recovery code to chew on.
class FaultInjectedFile : public WritableFile {
 public:
  FaultInjectedFile(FaultInjectionEnv* env, std::unique_ptr<WritableFile> base,
                    std::string path)
      : env_(env), base_(std::move(base)), path_(std::move(path)) {}

  Status Append(std::string_view data) override {
    FaultPlan& plan = env_->plan_;
    FaultStats& stats = env_->stats_;
    XSM_RETURN_NOT_OK(env_->ChargeOp());
    const int64_t ordinal = stats.appends++;

    // Scheduled append failure: persist the configured torn prefix, then
    // fail typed with the configured cause.
    if (ordinal == plan.fail_append_at) {
      const size_t keep = std::min(plan.append_persist_bytes, data.size());
      if (keep > 0) {
        XSM_RETURN_NOT_OK(base_->Append(data.substr(0, keep)));
        stats.bytes_appended += static_cast<int64_t>(keep);
      }
      return MakeInjected(plan.append_error, plan.append_detail, path_);
    }

    // Crash-at-byte: persist up to the boundary, then die.
    if (plan.crash_at_byte >= 0 &&
        stats.bytes_appended + static_cast<int64_t>(data.size()) >
            plan.crash_at_byte) {
      const size_t keep = static_cast<size_t>(
          std::max<int64_t>(0, plan.crash_at_byte - stats.bytes_appended));
      if (keep > 0) {
        XSM_RETURN_NOT_OK(base_->Append(data.substr(0, keep)));
        stats.bytes_appended += static_cast<int64_t>(keep);
      }
      stats.crashed = true;
      return SimulatedCrash();
    }

    if (plan.eintr_splits && data.size() > 1) {
      // An EINTR-shaped interruption: half the bytes land, the "syscall"
      // is interrupted, the resume loop writes the rest.
      const size_t half = data.size() / 2;
      XSM_RETURN_NOT_OK(base_->Append(data.substr(0, half)));
      ++stats.eintr_injected;
      XSM_RETURN_NOT_OK(base_->Append(data.substr(half)));
      stats.bytes_appended += static_cast<int64_t>(data.size());
      return Status::OK();
    }

    XSM_RETURN_NOT_OK(base_->Append(data));
    stats.bytes_appended += static_cast<int64_t>(data.size());
    return Status::OK();
  }

  Status Sync() override {
    XSM_RETURN_NOT_OK(env_->ChargeOp());
    if (env_->stats_.syncs++ == env_->plan_.fail_sync_at) {
      return MakeInjected(StatusCode::kIOError, "injected fsync failure",
                          path_);
    }
    return base_->Sync();
  }

  Status Close() override { return base_->Close(); }

 private:
  FaultInjectionEnv* env_;
  std::unique_ptr<WritableFile> base_;
  std::string path_;
};

FaultInjectionEnv::FaultInjectionEnv(FaultPlan plan, Env* base)
    : plan_(std::move(plan)),
      base_(base != nullptr ? base : Env::Default()) {}

Status FaultInjectionEnv::ChargeOp() {
  if (stats_.crashed) return SimulatedCrash();
  if (plan_.crash_after_ops >= 0 && stats_.ops >= plan_.crash_after_ops) {
    stats_.crashed = true;
    return SimulatedCrash();
  }
  ++stats_.ops;
  return Status::OK();
}

Result<std::unique_ptr<WritableFile>> FaultInjectionEnv::NewWritableFile(
    const std::string& path, bool truncate) {
  XSM_RETURN_NOT_OK(ChargeOp());
  XSM_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> base,
                       base_->NewWritableFile(path, truncate));
  return std::unique_ptr<WritableFile>(
      std::make_unique<FaultInjectedFile>(this, std::move(base), path));
}

Result<std::string> FaultInjectionEnv::ReadFileToString(
    const std::string& path) {
  // Reads pass through unscheduled: recovery must see the real bytes.
  return base_->ReadFileToString(path);
}

Status FaultInjectionEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  XSM_RETURN_NOT_OK(ChargeOp());
  if (stats_.renames++ == plan_.fail_rename_at) {
    return MakeInjected(StatusCode::kIOError, "injected rename failure", to);
  }
  return base_->RenameFile(from, to);
}

Status FaultInjectionEnv::RemoveFile(const std::string& path) {
  XSM_RETURN_NOT_OK(ChargeOp());
  return base_->RemoveFile(path);
}

Status FaultInjectionEnv::TruncateFile(const std::string& path,
                                       uint64_t size) {
  XSM_RETURN_NOT_OK(ChargeOp());
  return base_->TruncateFile(path, size);
}

Status FaultInjectionEnv::SyncDir(const std::string& path) {
  XSM_RETURN_NOT_OK(ChargeOp());
  if (stats_.syncs++ == plan_.fail_sync_at) {
    return MakeInjected(StatusCode::kIOError, "injected fsync failure", path);
  }
  return base_->SyncDir(path);
}

bool FaultInjectionEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Result<uint64_t> FaultInjectionEnv::FileSize(const std::string& path) {
  return base_->FileSize(path);
}

}  // namespace xsm::util::io
