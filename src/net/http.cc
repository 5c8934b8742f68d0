#include "net/http.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <charconv>

namespace xsm::net {

namespace {

bool IsTokenChar(unsigned char c) {
  // RFC 9110 token characters.
  if (std::isalnum(c)) return true;
  switch (c) {
    case '!':
    case '#':
    case '$':
    case '%':
    case '&':
    case '\'':
    case '*':
    case '+':
    case '-':
    case '.':
    case '^':
    case '_':
    case '`':
    case '|':
    case '~':
      return true;
    default:
      return false;
  }
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view TrimOws(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Case-insensitive comparison against an already-lowercase literal.
bool EqualsLower(std::string_view value, std::string_view lower) {
  if (value.size() != lower.size()) return false;
  for (size_t i = 0; i < value.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(value[i])) != lower[i]) {
      return false;
    }
  }
  return true;
}

/// True if the comma-separated `value` contains the token `lower`
/// (case-insensitively) — "Connection: keep-alive, Upgrade".
bool ContainsToken(std::string_view value, std::string_view lower) {
  size_t pos = 0;
  while (pos <= value.size()) {
    size_t comma = value.find(',', pos);
    std::string_view token = value.substr(
        pos, comma == std::string_view::npos ? std::string_view::npos
                                             : comma - pos);
    if (EqualsLower(TrimOws(token), lower)) return true;
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  return false;
}

}  // namespace

const std::string* HttpMessage::FindHeader(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

HttpParser::HttpParser(Mode mode, const HttpLimits& limits)
    : mode_(mode), limits_(limits) {}

void HttpParser::Fail(Status status) {
  state_ = State::kError;
  status_ = std::move(status);
  buffer_.clear();
  buffer_.shrink_to_fit();
}

void HttpParser::Feed(std::string_view data) {
  if (state_ == State::kError) return;
  if (state_ == State::kDone) {
    // Pipelined lookahead for the next message; bounded so a peer cannot
    // pump unread requests into memory while we serve the current one.
    if (buffer_.size() + data.size() > limits_.max_pipeline_bytes) {
      Fail(Status::OutOfRange("pipelined lookahead exceeds limit"));
      return;
    }
    buffer_.append(data);
    return;
  }
  // Every other state bounds its own consumption; the raw append here is
  // safe because Advance() drains the buffer down to (bounded) leftovers
  // each call, so the transient size is one read() worth of bytes plus a
  // bounded remainder.
  buffer_.append(data);
  Advance();
}

void HttpParser::Finish() {
  if (state_ == State::kBodyUntilEof) {
    message_.body.append(buffer_);
    buffer_.clear();
    state_ = State::kDone;
    return;
  }
  if (state_ == State::kDone || state_ == State::kError) return;
  if (state_ == State::kHeaders && buffer_.empty() &&
      message_.method.empty()) {
    // Clean EOF between messages: nothing was started, nothing truncated.
    Fail(Status::ParseError("connection closed before a request"));
    return;
  }
  Fail(Status::ParseError("connection closed mid-message (truncated)"));
}

void HttpParser::Reset() {
  if (state_ != State::kDone) return;
  message_ = HttpMessage();
  state_ = State::kHeaders;
  header_scan_ = 0;
  body_remaining_ = 0;
  chunk_remaining_ = 0;
  trailer_bytes_ = 0;
  status_ = Status::OK();
  if (!buffer_.empty()) Advance();
}

void HttpParser::Advance() {
  while (true) {
    switch (state_) {
      case State::kHeaders: {
        // Resume the terminator search three bytes back so a CRLFCRLF
        // split across Feed() boundaries is still found.
        size_t from = header_scan_ > 3 ? header_scan_ - 3 : 0;
        size_t end = buffer_.find("\r\n\r\n", from);
        if (end == std::string::npos) {
          if (buffer_.size() >= limits_.max_header_bytes) {
            Fail(Status::OutOfRange("header block exceeds " +
                                    std::to_string(limits_.max_header_bytes) +
                                    " bytes"));
          }
          header_scan_ = buffer_.size();
          return;
        }
        if (end + 4 > limits_.max_header_bytes) {
          Fail(Status::OutOfRange("header block exceeds " +
                                  std::to_string(limits_.max_header_bytes) +
                                  " bytes"));
          return;
        }
        if (!ParseHeaderBlock(std::string_view(buffer_).substr(0, end))) {
          return;  // Fail() already latched
        }
        buffer_.erase(0, end + 4);
        header_scan_ = 0;
        if (!DecideFraming()) return;
        break;
      }
      case State::kBody: {
        size_t take = static_cast<size_t>(
            std::min<uint64_t>(body_remaining_, buffer_.size()));
        message_.body.append(buffer_, 0, take);
        buffer_.erase(0, take);
        body_remaining_ -= take;
        if (body_remaining_ > 0) return;
        state_ = State::kDone;
        break;
      }
      case State::kBodyUntilEof: {
        if (message_.body.size() + buffer_.size() > limits_.max_body_bytes) {
          Fail(Status::OutOfRange("body exceeds " +
                                  std::to_string(limits_.max_body_bytes) +
                                  " bytes"));
          return;
        }
        message_.body.append(buffer_);
        buffer_.clear();
        return;  // completed by Finish()
      }
      case State::kChunkSize: {
        size_t eol = buffer_.find("\r\n");
        if (eol == std::string::npos) {
          if (buffer_.size() > limits_.max_chunk_line_bytes) {
            Fail(Status::ParseError("chunk-size line too long"));
          }
          return;
        }
        if (eol > limits_.max_chunk_line_bytes) {
          Fail(Status::ParseError("chunk-size line too long"));
          return;
        }
        std::string_view line = std::string_view(buffer_).substr(0, eol);
        uint64_t size = 0;
        size_t digits = 0;
        while (digits < line.size()) {
          char c = line[digits];
          int nibble;
          if (c >= '0' && c <= '9') {
            nibble = c - '0';
          } else if (c >= 'a' && c <= 'f') {
            nibble = c - 'a' + 10;
          } else if (c >= 'A' && c <= 'F') {
            nibble = c - 'A' + 10;
          } else {
            break;
          }
          // Overflow guard before the shift: anything past the body limit
          // is rejected anyway, so cap the accumulator there.
          size = size * 16 + static_cast<uint64_t>(nibble);
          if (size > limits_.max_body_bytes) {
            Fail(Status::OutOfRange("chunk exceeds body limit"));
            return;
          }
          ++digits;
        }
        if (digits == 0) {
          Fail(Status::ParseError("malformed chunk size"));
          return;
        }
        // Only a chunk extension (";...") may follow the hex digits.
        if (digits < line.size() && line[digits] != ';') {
          Fail(Status::ParseError("malformed chunk size"));
          return;
        }
        if (message_.body.size() + size > limits_.max_body_bytes) {
          Fail(Status::OutOfRange("body exceeds " +
                                  std::to_string(limits_.max_body_bytes) +
                                  " bytes"));
          return;
        }
        buffer_.erase(0, eol + 2);
        if (size == 0) {
          state_ = State::kTrailer;
        } else {
          chunk_remaining_ = size;
          state_ = State::kChunkData;
        }
        break;
      }
      case State::kChunkData: {
        size_t take = static_cast<size_t>(
            std::min<uint64_t>(chunk_remaining_, buffer_.size()));
        message_.body.append(buffer_, 0, take);
        buffer_.erase(0, take);
        chunk_remaining_ -= take;
        if (chunk_remaining_ > 0) return;
        state_ = State::kChunkDataCrlf;
        break;
      }
      case State::kChunkDataCrlf: {
        if (buffer_.size() < 2) return;
        if (buffer_[0] != '\r' || buffer_[1] != '\n') {
          Fail(Status::ParseError("missing CRLF after chunk data"));
          return;
        }
        buffer_.erase(0, 2);
        state_ = State::kChunkSize;
        break;
      }
      case State::kTrailer: {
        size_t eol = buffer_.find("\r\n");
        if (eol == std::string::npos) {
          if (buffer_.size() > limits_.max_trailer_bytes) {
            Fail(Status::OutOfRange("trailer section exceeds limit"));
          }
          return;
        }
        trailer_bytes_ += eol + 2;
        if (trailer_bytes_ > limits_.max_trailer_bytes) {
          Fail(Status::OutOfRange("trailer section exceeds limit"));
          return;
        }
        bool empty = eol == 0;
        buffer_.erase(0, eol + 2);  // trailer fields are dropped, not kept
        if (empty) state_ = State::kDone;
        break;
      }
      case State::kDone:
      case State::kError:
        return;
    }
  }
}

bool HttpParser::ParseStartLine(std::string_view line) {
  size_t sp1 = line.find(' ');
  size_t sp2 = sp1 == std::string_view::npos
                   ? std::string_view::npos
                   : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    Fail(Status::ParseError("malformed start line"));
    return false;
  }
  if (mode_ == Mode::kRequest) {
    std::string_view method = line.substr(0, sp1);
    std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    std::string_view version = line.substr(sp2 + 1);
    if (method.empty() || method.size() > 16 ||
        !std::all_of(method.begin(), method.end(), [](char c) {
          return IsTokenChar(static_cast<unsigned char>(c));
        })) {
      Fail(Status::ParseError("malformed request method"));
      return false;
    }
    if (target.empty() || (target[0] != '/' && target != "*") ||
        std::any_of(target.begin(), target.end(), [](unsigned char c) {
          return c <= 0x20 || c == 0x7f;
        })) {
      Fail(Status::ParseError("malformed request target"));
      return false;
    }
    if (version != "HTTP/1.1" && version != "HTTP/1.0") {
      Fail(Status::Unimplemented("unsupported HTTP version"));
      return false;
    }
    message_.method = std::string(method);
    message_.target = std::string(target);
    message_.version = std::string(version);
  } else {
    std::string_view version = line.substr(0, sp1);
    std::string_view code = line.substr(sp1 + 1, sp2 - sp1 - 1);
    if ((version != "HTTP/1.1" && version != "HTTP/1.0") ||
        code.size() != 3 ||
        !std::all_of(code.begin(), code.end(), [](unsigned char c) {
          return std::isdigit(c);
        })) {
      Fail(Status::ParseError("malformed status line"));
      return false;
    }
    message_.version = std::string(version);
    message_.status_code = (code[0] - '0') * 100 + (code[1] - '0') * 10 +
                           (code[2] - '0');
    message_.reason = std::string(line.substr(sp2 + 1));
  }
  return true;
}

bool HttpParser::ParseHeaderBlock(std::string_view block) {
  size_t eol = block.find("\r\n");
  std::string_view start_line =
      eol == std::string_view::npos ? block : block.substr(0, eol);
  if (!ParseStartLine(start_line)) return false;
  size_t pos = eol == std::string_view::npos ? block.size() : eol + 2;
  while (pos < block.size()) {
    size_t line_end = block.find("\r\n", pos);
    std::string_view line = block.substr(
        pos, line_end == std::string_view::npos ? std::string_view::npos
                                                : line_end - pos);
    pos = line_end == std::string_view::npos ? block.size() : line_end + 2;
    if (line.empty()) {
      Fail(Status::ParseError("empty header line inside block"));
      return false;
    }
    if (line[0] == ' ' || line[0] == '\t') {
      // Obsolete line folding: deprecated, and a classic smuggling vector.
      Fail(Status::ParseError("folded header line"));
      return false;
    }
    size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      Fail(Status::ParseError("header line without name"));
      return false;
    }
    std::string_view name = line.substr(0, colon);
    if (!std::all_of(name.begin(), name.end(), [](char c) {
          return IsTokenChar(static_cast<unsigned char>(c));
        })) {
      Fail(Status::ParseError("malformed header name"));
      return false;
    }
    std::string_view value = TrimOws(line.substr(colon + 1));
    if (std::any_of(value.begin(), value.end(), [](unsigned char c) {
          return c == 0 || c == '\r' || c == '\n';
        })) {
      Fail(Status::ParseError("control byte in header value"));
      return false;
    }
    if (message_.headers.size() >= limits_.max_headers) {
      Fail(Status::OutOfRange("more than " +
                              std::to_string(limits_.max_headers) +
                              " headers"));
      return false;
    }
    message_.headers.emplace_back(ToLower(name), std::string(value));
  }
  return true;
}

bool HttpParser::DecideFraming() {
  const std::string* te = message_.FindHeader("transfer-encoding");
  const std::string* cl = message_.FindHeader("content-length");

  // Connection semantics before framing, so even a framing error leaves a
  // sensible keep_alive for the error response.
  message_.keep_alive = message_.version == "HTTP/1.1";
  if (const std::string* conn = message_.FindHeader("connection")) {
    if (ContainsToken(*conn, "close")) message_.keep_alive = false;
    if (ContainsToken(*conn, "keep-alive")) message_.keep_alive = true;
  }

  if (te != nullptr && cl != nullptr) {
    // The classic request-smuggling ambiguity; reject outright.
    Fail(Status::ParseError(
        "both Content-Length and Transfer-Encoding present"));
    return false;
  }
  if (te != nullptr) {
    if (!EqualsLower(*te, "chunked")) {
      Fail(Status::Unimplemented("transfer-encoding other than chunked"));
      return false;
    }
    message_.chunked = true;
    state_ = State::kChunkSize;
    return true;
  }
  if (cl != nullptr) {
    // Strict digits-only parse; a second Content-Length header or any
    // non-digit (sign, space, overflow padding) is rejected.
    size_t occurrences = 0;
    for (const auto& [key, value] : message_.headers) {
      (void)value;
      if (key == "content-length") ++occurrences;
    }
    if (occurrences > 1) {
      Fail(Status::ParseError("multiple Content-Length headers"));
      return false;
    }
    if (cl->empty() || cl->size() > 18 ||
        !std::all_of(cl->begin(), cl->end(), [](unsigned char c) {
          return std::isdigit(c);
        })) {
      Fail(Status::ParseError("malformed Content-Length"));
      return false;
    }
    uint64_t length = 0;
    for (char c : *cl) length = length * 10 + static_cast<uint64_t>(c - '0');
    if (length > limits_.max_body_bytes) {
      Fail(Status::OutOfRange("body exceeds " +
                              std::to_string(limits_.max_body_bytes) +
                              " bytes"));
      return false;
    }
    body_remaining_ = length;
    state_ = length == 0 ? State::kDone : State::kBody;
    return true;
  }
  // No framing header: requests have no body; responses read until EOF.
  state_ = mode_ == Mode::kRequest ? State::kDone : State::kBodyUntilEof;
  return true;
}

std::string_view ReasonPhrase(int code) {
  switch (code) {
    case 200: return "OK";
    case 201: return "Created";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 410: return "Gone";
    case 413: return "Content Too Large";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default:  return "Status";
  }
}

std::string SimpleResponse(int code, std::string_view content_type,
                           std::string_view body, bool keep_alive) {
  std::string out;
  out.reserve(body.size() + 128);
  out += "HTTP/1.1 ";
  out += std::to_string(code);
  out += ' ';
  out += ReasonPhrase(code);
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += keep_alive ? "\r\nConnection: keep-alive"
                    : "\r\nConnection: close";
  out += "\r\n\r\n";
  out += body;
  return out;
}

std::string ChunkedResponseHead(int code, std::string_view content_type,
                                bool keep_alive) {
  std::string out;
  out += "HTTP/1.1 ";
  out += std::to_string(code);
  out += ' ';
  out += ReasonPhrase(code);
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nTransfer-Encoding: chunked";
  out += keep_alive ? "\r\nConnection: keep-alive"
                    : "\r\nConnection: close";
  out += "\r\n\r\n";
  return out;
}

namespace {

// The chunk-size line: the payload length in lowercase hex, then CRLF.
void AppendChunkSize(std::string* out, size_t size) {
  char hex[24];
  const std::to_chars_result r =
      std::to_chars(hex, hex + sizeof(hex), size, 16);
  out->append(hex, r.ptr);
  out->append("\r\n");
}

}  // namespace

std::string EncodeChunk(std::string_view data) {
  if (data.empty()) return std::string();
  std::string out;
  out.reserve(data.size() + 20);
  AppendChunkSize(&out, data.size());
  out.append(data);
  out.append("\r\n");
  return out;
}

void AppendLineChunk(std::string* out, std::string_view line) {
  AppendChunkSize(out, line.size() + 1);
  out->append(line);
  out->append("\n\r\n");
}

int HttpCodeForStatus(const Status& status) {
  assert(!status.ok());
  switch (status.code()) {
    case StatusCode::kParseError:
    case StatusCode::kInvalidArgument:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kOutOfRange:
      return 413;
    case StatusCode::kFailedPrecondition:
      return 409;
    case StatusCode::kUnimplemented:
      return 501;
    case StatusCode::kDeadlineExceeded:
      return 504;
    default:
      return 500;
  }
}

std::vector<std::string> SplitPathSegments(std::string_view target) {
  size_t query = target.find('?');
  if (query != std::string_view::npos) target = target.substr(0, query);
  std::vector<std::string> segments;
  size_t pos = 0;
  while (pos < target.size()) {
    if (target[pos] == '/') {
      ++pos;
      continue;
    }
    size_t next = target.find('/', pos);
    if (next == std::string_view::npos) next = target.size();
    segments.emplace_back(target.substr(pos, next - pos));
    pos = next;
  }
  return segments;
}

}  // namespace xsm::net
