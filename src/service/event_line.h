// EventLine: the one writer of NDJSON event lines. Every event of stdin
// serve, HTTP and the CLI is spelled here: the {"type":"..."} opening,
// commas, quoting, escaping and number formats (integers as "%d" / "%zu"
// print them, reals as "%.Nf" does, fingerprints as 16 zero-padded hex
// digits). Callers name fields and hand over values, e.g.
//   sink(EventLine(&line, "done").Str("id", id).Fixed("ms", ms, 3).End());
// It appends to the caller's string and allocates nothing of its own, so a
// reused buffer composes events without allocating. Keys are trusted
// constants and go in unescaped.
#ifndef XSM_SERVICE_EVENT_LINE_H_
#define XSM_SERVICE_EVENT_LINE_H_

#include <string>
#include <string_view>

#include "util/string_util.h"

namespace xsm::service {

inline bool NeedsJsonEscape(unsigned char c) {
  return c < 0x20 || c == '"' || c == '\\';
}

/// Appends `s` as the inside of a JSON string: quotes, backslashes and
/// control bytes escaped (\n \r \t by name, other controls as \u00XX).
/// Clean runs are copied in bulk.
inline void AppendJsonEscaped(std::string* out, std::string_view s) {
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (!NeedsJsonEscape(c)) continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    static constexpr char kHex[] = "0123456789abcdef";
    const char named = c == '\n' ? 'n' : c == '\r' ? 'r' : c == '\t' ? 't' : 0;
    if (c == '"' || c == '\\' || named != 0) {
      const char escaped[] = {'\\', named != 0 ? named : static_cast<char>(c)};
      out->append(escaped, sizeof(escaped));
    } else {
      const char escaped[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
      out->append(escaped, sizeof(escaped));
    }
  }
  out->append(s.data() + run, s.size() - run);
}

class EventLine {
 public:
  /// Appends {"type":"<type>" to `out`, which must outlive the builder.
  EventLine(std::string* out, std::string_view type) : out_(*out) {
    out_.append("{\"type\":\"").append(type).push_back('"');
  }

  /// Closes the event and returns the whole buffer.
  const std::string& End() {
    out_.push_back('}');
    return out_;
  }

  template <typename T>
  EventLine& Int(std::string_view key, T value) {
    AppendInteger(&Key(key), value);
    return *this;
  }
  EventLine& Fixed(std::string_view key, double value, int decimals) {
    AppendFixed(&Key(key), value, decimals);
    return *this;
  }
  /// A 64-bit fingerprint: a string of 16 zero-padded hex digits.
  EventLine& Hex(std::string_view key, unsigned long long value) {
    AppendHex(&Key(key).append(1, '"'), value, 16);
    out_.push_back('"');
    return *this;
  }
  EventLine& Bool(std::string_view key, bool value) {
    Key(key).append(value ? "true" : "false");
    return *this;
  }
  EventLine& Str(std::string_view key, std::string_view value) {
    return Text(key, [value](std::string* out) { out->append(value); });
  }

  /// A string value that `append` writes into the buffer in place; it is
  /// escaped from the first byte that needs it, so clean text is never
  /// copied.
  template <typename AppendFn>
  EventLine& Text(std::string_view key, AppendFn&& append) {
    Key(key).push_back('"');
    const size_t begin = out_.size();
    append(&out_);
    for (size_t i = begin; i < out_.size(); ++i) {
      if (NeedsJsonEscape(static_cast<unsigned char>(out_[i]))) {
        const std::string rest = out_.substr(i);
        out_.resize(i);
        AppendJsonEscaped(&out_, rest);
        break;
      }
    }
    out_.push_back('"');
    return *this;
  }

  /// Nested values: an object or array field, closed by EndObject /
  /// EndArray; inside an array, string elements and object elements.
  EventLine& Object(std::string_view key) { return Open(Key(key), '{'); }
  EventLine& Array(std::string_view key) { return Open(Key(key), '['); }
  EventLine& ObjectElement() { return Open(Separate(), '{'); }
  EventLine& Element(std::string_view value) {
    Separate().push_back('"');
    AppendJsonEscaped(&out_, value);
    out_.push_back('"');
    return *this;
  }
  EventLine& EndObject() { return Close('}'); }
  EventLine& EndArray() { return Close(']'); }

 private:
  std::string& Separate() {
    if (!empty_) out_.push_back(',');
    empty_ = false;
    return out_;
  }
  std::string& Key(std::string_view key) {
    return Separate().append(1, '"').append(key).append("\":");
  }
  EventLine& Open(std::string& out, char bracket) {
    out.push_back(bracket);
    empty_ = true;
    return *this;
  }
  EventLine& Close(char bracket) {
    out_.push_back(bracket);
    empty_ = false;
    return *this;
  }

  std::string& out_;
  bool empty_ = false;  ///< nothing written yet in the innermost container
};

}  // namespace xsm::service

#endif  // XSM_SERVICE_EVENT_LINE_H_
