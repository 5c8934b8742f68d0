#include "wal/wal.h"

#include <cstring>
#include <utility>

#include "util/wire.h"

namespace xsm::wal {

namespace {

constexpr char kMagic[8] = {'X', 'S', 'M', 'W', 'A', 'L', '0', '\0'};
// version + base_generation + base_fingerprint.
constexpr size_t kHeaderFieldsSize = 4 + 8 + 8;

}  // namespace

std::string SerializeWalHeader(uint64_t base_generation,
                               uint64_t base_fingerprint) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  wire::Writer header(&out);
  header.U32(kWalFormatVersion);
  header.U64(base_generation);
  header.U64(base_fingerprint);
  header.U32(wire::Crc32c(
      std::string_view(out).substr(sizeof(kMagic), kHeaderFieldsSize)));
  return out;
}

Result<WalReadResult> ParseWal(std::string_view bytes) {
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError("not an xsm journal file (bad magic)");
  }
  if (bytes.size() < kWalHeaderSize) {
    // The header is written in one atomic Create — it can never be torn
    // by an append crash, so a short header is damage, not a crash mark.
    return Status::Corruption("truncated journal header");
  }
  wire::Reader header(bytes.substr(sizeof(kMagic), kWalHeaderSize - 8));
  WalReadResult out;
  out.info.format_version = header.U32();
  if (out.info.format_version > kWalFormatVersion) {
    return Status::Unimplemented(
        "journal format version " +
        std::to_string(out.info.format_version) +
        " is newer than this build reads (<= " +
        std::to_string(kWalFormatVersion) + ")");
  }
  out.info.base_generation = header.U64();
  out.info.base_fingerprint = header.U64();
  wire::Reader crc_reader(
      bytes.substr(sizeof(kMagic) + kHeaderFieldsSize, 4));
  if (wire::Crc32c(bytes.substr(sizeof(kMagic), kHeaderFieldsSize)) !=
      crc_reader.U32()) {
    return Status::Corruption("journal header CRC mismatch");
  }
  if (out.info.format_version == 0) {
    return Status::Corruption("journal header is internally inconsistent");
  }

  size_t cursor = kWalHeaderSize;
  while (cursor < bytes.size()) {
    const size_t record_start = cursor;
    if (bytes.size() - cursor < kWalRecordFrameSize) {
      // Incomplete frame: the crash tore the very first bytes of a
      // record. Drop it.
      out.torn_tail = true;
      out.dropped_bytes = bytes.size() - record_start;
      break;
    }
    wire::Reader frame(bytes.substr(cursor, kWalRecordFrameSize));
    const uint32_t crc = frame.U32();
    const uint32_t type = frame.U32();
    const uint64_t size = frame.U64();
    cursor += kWalRecordFrameSize;
    if (size > bytes.size() - cursor) {
      // Payload shorter than its frame claims: torn mid-payload.
      out.torn_tail = true;
      out.dropped_bytes = bytes.size() - record_start;
      break;
    }
    std::string_view payload = bytes.substr(cursor, size);
    cursor += static_cast<size_t>(size);
    // The record is complete on disk. Appends are sequential and fsync'd,
    // so a crash cannot damage a complete record — any mismatch from here
    // on is real corruption and must be refused typed.
    if (wire::Crc32c(payload) != crc) {
      return Status::Corruption(
          "journal record " + std::to_string(out.records.size()) +
          " CRC mismatch");
    }
    if (type != static_cast<uint32_t>(RecordType::kDelta)) {
      return Status::Corruption(
          "journal record " + std::to_string(out.records.size()) +
          " has unknown type " + std::to_string(type));
    }
    WalRecord record;
    record.type = static_cast<RecordType>(type);
    record.payload.assign(payload);
    out.records.push_back(std::move(record));
    out.valid_bytes = cursor;
  }
  if (out.valid_bytes == 0) out.valid_bytes = kWalHeaderSize;
  return out;
}

Result<WalReadResult> ReadWal(util::io::Env* env, const std::string& path) {
  if (!env->FileExists(path)) {
    return Status::NotFound("no journal at " + path);
  }
  XSM_ASSIGN_OR_RETURN(std::string bytes, env->ReadFileToString(path));
  return ParseWal(bytes);
}

Result<std::unique_ptr<WalWriter>> WalWriter::Create(
    util::io::Env* env, const std::string& path, uint64_t base_generation,
    uint64_t base_fingerprint) {
  // The fresh journal replaces any predecessor atomically: stage the
  // header under a tmp name, fsync, rename. A crash mid-Create leaves the
  // old journal intact (its records are all <= the just-checkpointed
  // generation, so recovery skips them). The staged file's handle is kept
  // across the rename, so every failure leaves the old journal in place.
  const std::string header =
      SerializeWalHeader(base_generation, base_fingerprint);
  util::io::AtomicFileWriter staged(env, path);
  XSM_RETURN_NOT_OK(staged.Append(header));
  std::unique_ptr<util::io::WritableFile> file;
  XSM_RETURN_NOT_OK(staged.Commit(&file));
  WalInfo info;
  info.format_version = kWalFormatVersion;
  info.base_generation = base_generation;
  info.base_fingerprint = base_fingerprint;
  return std::unique_ptr<WalWriter>(
      new WalWriter(env, path, std::move(file), info, header.size()));
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(
    util::io::Env* env, const std::string& path, const WalReadResult& read) {
  if (read.torn_tail) {
    // Clear the crash artifact so the next record starts on a frame
    // boundary; the dropped suffix was never acknowledged.
    XSM_RETURN_NOT_OK(env->TruncateFile(path, read.valid_bytes));
  }
  XSM_ASSIGN_OR_RETURN(std::unique_ptr<util::io::WritableFile> file,
                       env->NewWritableFile(path, /*truncate=*/false));
  return std::unique_ptr<WalWriter>(
      new WalWriter(env, path, std::move(file), read.info, read.valid_bytes));
}

Status WalWriter::Append(RecordType type, std::string_view payload) {
  XSM_RETURN_NOT_OK(poisoned_);
  std::string frame;
  wire::Writer writer(&frame);
  writer.U32(wire::Crc32c(payload));
  writer.U32(static_cast<uint32_t>(type));
  writer.U64(payload.size());
  // One Append call per record half keeps the torn-prefix geometry simple
  // for the crash sweep; durability comes from the fsync below either way.
  Status status = file_->Append(frame);
  if (status.ok()) status = file_->Append(payload);
  const bool written = status.ok();
  if (written) status = file_->Sync();
  if (!status.ok()) {
    poisoned_ = Status::FailedPrecondition(
        "journal closed after a failed append (" + status.ToString() +
        "); a checkpoint re-bases it");
    // The caller refuses this record's delta. A torn record is dropped by
    // recovery, but one whose fsync failed is whole in the file and would
    // be replayed: cut it off.
    if (written) (void)env_->TruncateFile(path_, size_bytes_);
    return status;
  }
  size_bytes_ += frame.size() + payload.size();
  ++records_appended_;
  return Status::OK();
}

}  // namespace xsm::wal
