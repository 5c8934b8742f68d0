#include "util/wire.h"

#include <array>

namespace xsm::wire {

namespace {

constexpr uint32_t kCrc32cPoly = 0x82F63B78u;

/// Eight CRC-32C slicing tables, computed once at first use. Table 0 is
/// the classic byte-at-a-time table; table k folds a byte that sits k
/// positions ahead of the running remainder.
const std::array<std::array<uint32_t, 256>, 8>& CrcTables() {
  static const std::array<std::array<uint32_t, 256>, 8> tables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kCrc32cPoly : 0u);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = t[0][i];
      for (size_t k = 1; k < 8; ++k) {
        crc = t[0][crc & 0xFFu] ^ (crc >> 8);
        t[k][i] = crc;
      }
    }
    return t;
  }();
  return tables;
}

uint32_t Crc32cSoftware(uint32_t crc, const unsigned char* p, size_t n) {
  const auto& t = CrcTables();
  while (n >= 8) {
    uint32_t lo = crc ^ (static_cast<uint32_t>(p[0]) |
                         static_cast<uint32_t>(p[1]) << 8 |
                         static_cast<uint32_t>(p[2]) << 16 |
                         static_cast<uint32_t>(p[3]) << 24);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
          t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = t[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(
    uint32_t crc, const unsigned char* p, size_t n) {
  uint64_t crc64 = crc;
  while (n >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, sizeof(chunk));
    crc64 = __builtin_ia32_crc32di(crc64, chunk);
    p += 8;
    n -= 8;
  }
  crc = static_cast<uint32_t>(crc64);
  while (n-- > 0) {
    crc = __builtin_ia32_crc32qi(crc, *p++);
  }
  return crc;
}

bool HaveSse42() {
  static const bool have = __builtin_cpu_supports("sse4.2");
  return have;
}
#endif

}  // namespace

uint32_t Crc32c(std::string_view bytes) {
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(bytes.data());
  uint32_t crc = 0xFFFFFFFFu;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (HaveSse42()) {
    return Crc32cHardware(crc, p, bytes.size()) ^ 0xFFFFFFFFu;
  }
#endif
  return Crc32cSoftware(crc, p, bytes.size()) ^ 0xFFFFFFFFu;
}

void Writer::I32Vec(const std::vector<int32_t>& v) {
  U64(v.size());
  if constexpr (std::endian::native == std::endian::big) {
    for (int32_t x : v) I32(x);
  } else {
    out_->append(reinterpret_cast<const char*>(v.data()),
                 v.size() * sizeof(int32_t));
  }
}

void Writer::U64Vec(const std::vector<uint64_t>& v) {
  U64(v.size());
  if constexpr (std::endian::native == std::endian::big) {
    for (uint64_t x : v) U64(x);
  } else {
    out_->append(reinterpret_cast<const char*>(v.data()),
                 v.size() * sizeof(uint64_t));
  }
}

const char* Reader::Take(size_t n) {
  if (!status_.ok()) return nullptr;
  if (n > bytes_.size() - pos_) {
    status_ = Status::Corruption("wire: read past end of input");
    pos_ = bytes_.size();
    return nullptr;
  }
  const char* p = bytes_.data() + pos_;
  pos_ += n;
  return p;
}

uint8_t Reader::U8() { return ReadLe<uint8_t>(); }
uint32_t Reader::U32() { return ReadLe<uint32_t>(); }
uint64_t Reader::U64() { return ReadLe<uint64_t>(); }

std::string Reader::Str() {
  uint64_t len = U64();
  if (!status_.ok()) return std::string();
  if (len > remaining()) {
    status_ = Status::Corruption("wire: string length exceeds input");
    pos_ = bytes_.size();
    return std::string();
  }
  const char* p = Take(static_cast<size_t>(len));
  return p == nullptr ? std::string()
                      : std::string(p, static_cast<size_t>(len));
}

bool Reader::I32Vec(std::vector<int32_t>* out) {
  uint64_t count = U64();
  if (!status_.ok()) return false;
  if (count > remaining() / sizeof(int32_t)) {
    status_ = Status::Corruption("wire: vector length exceeds input");
    pos_ = bytes_.size();
    return false;
  }
  const char* p = Take(static_cast<size_t>(count) * sizeof(int32_t));
  if (p == nullptr) return false;
  out->resize(static_cast<size_t>(count));
  if constexpr (std::endian::native == std::endian::big) {
    for (size_t i = 0; i < out->size(); ++i) {
      uint32_t v = 0;
      for (size_t b = 0; b < 4; ++b) {
        v |= static_cast<uint32_t>(
                 static_cast<unsigned char>(p[4 * i + b]))
             << (8 * b);
      }
      (*out)[i] = static_cast<int32_t>(v);
    }
  } else {
    std::memcpy(out->data(), p, out->size() * sizeof(int32_t));
  }
  return true;
}

bool Reader::U64Vec(std::vector<uint64_t>* out) {
  uint64_t count = U64();
  if (!status_.ok()) return false;
  if (count > remaining() / sizeof(uint64_t)) {
    status_ = Status::Corruption("wire: vector length exceeds input");
    pos_ = bytes_.size();
    return false;
  }
  const char* p = Take(static_cast<size_t>(count) * sizeof(uint64_t));
  if (p == nullptr) return false;
  out->resize(static_cast<size_t>(count));
  if constexpr (std::endian::native == std::endian::big) {
    for (size_t i = 0; i < out->size(); ++i) {
      uint64_t v = 0;
      for (size_t b = 0; b < 8; ++b) {
        v |= static_cast<uint64_t>(
                 static_cast<unsigned char>(p[8 * i + b]))
             << (8 * b);
      }
      (*out)[i] = v;
    }
  } else {
    std::memcpy(out->data(), p, out->size() * sizeof(uint64_t));
  }
  return true;
}

void Reader::Fail(std::string message) {
  if (status_.ok()) status_ = Status::Corruption(std::move(message));
}

}  // namespace xsm::wire
