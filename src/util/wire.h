// Binary wire primitives for the snapshot store: little-endian fixed-width
// encodes into a growable byte string, a bounds-checked sticky-error reader
// over one, and CRC-32 for per-section integrity.
//
// Everything here is deliberately dumb: no varints, no compression, no
// reflection. The store's sections are CRC-protected, so the reader's job
// is only (a) never to read past its window — a truncated or hostile
// length field degrades into a sticky Corruption status, not UB — and
// (b) to be fast enough that a warm load is dominated by I/O, not
// decoding (vector payloads are memcpy'd on little-endian targets).
#ifndef XSM_UTIL_WIRE_H_
#define XSM_UTIL_WIRE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace xsm::wire {

/// CRC-32C (Castagnoli, reflected 0x82F63B78 — the iSCSI/RocksDB
/// polynomial) over `bytes`. The value is identical on every platform;
/// the implementation uses the SSE4.2 crc32 instruction where the CPU has
/// it and slicing-by-eight tables elsewhere, so checksumming a
/// multi-megabyte section costs microseconds, not the warm-load budget.
uint32_t Crc32c(std::string_view bytes);

/// Appends fixed-width little-endian values to a byte string.
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { AppendLe(v); }
  void U64(uint64_t v) { AppendLe(v); }
  void I32(int32_t v) { AppendLe(static_cast<uint32_t>(v)); }

  /// u64 byte length + raw bytes.
  void Str(std::string_view s) {
    U64(s.size());
    out_->append(s);
  }

  /// u64 element count + packed little-endian elements.
  void I32Vec(const std::vector<int32_t>& v);
  void U64Vec(const std::vector<uint64_t>& v);

  size_t size() const { return out_->size(); }

 private:
  template <typename T>
  void AppendLe(T v) {
    if constexpr (std::endian::native == std::endian::big) {
      for (size_t i = 0; i < sizeof(T); ++i) {
        out_->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
      }
    } else {
      char buf[sizeof(T)];
      std::memcpy(buf, &v, sizeof(T));
      out_->append(buf, sizeof(T));
    }
  }

  std::string* out_;
};

/// Sticky-error reader over one byte window. Every accessor bounds-checks;
/// the first underflow latches a Corruption status and every later read
/// returns zeros/empties, so a decode loop may run to its natural end and
/// check status() once. Length-prefixed reads validate the prefix against
/// the bytes actually remaining before allocating, so a crafted length
/// can neither overflow nor balloon memory.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  int32_t I32() { return static_cast<int32_t>(U32()); }
  std::string Str();

  bool I32Vec(std::vector<int32_t>* out);
  bool U64Vec(std::vector<uint64_t>* out);

  size_t remaining() const { return bytes_.size() - pos_; }
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Latches an external decode failure (bad enum value, inconsistent
  /// count) into the same sticky channel the bounds checks use.
  void Fail(std::string message);

 private:
  /// Claims `n` bytes, or latches Corruption and returns nullptr.
  const char* Take(size_t n);

  template <typename T>
  T ReadLe() {
    const char* p = Take(sizeof(T));
    if (p == nullptr) return T{0};
    if constexpr (std::endian::native == std::endian::big) {
      T v{0};
      for (size_t i = 0; i < sizeof(T); ++i) {
        v |= static_cast<T>(static_cast<unsigned char>(p[i])) << (8 * i);
      }
      return v;
    } else {
      T v;
      std::memcpy(&v, p, sizeof(T));
      return v;
    }
  }

  std::string_view bytes_;
  size_t pos_ = 0;
  Status status_ = Status::OK();
};

}  // namespace xsm::wire

#endif  // XSM_UTIL_WIRE_H_
