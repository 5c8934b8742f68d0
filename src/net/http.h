// Bounded HTTP/1.1 message parsing and framing for the xsm::net serving
// front end. Dependency-free (std only) and deliberately small: request
// lines, header blocks, Content-Length bodies and chunked transfer coding —
// enough to serve and consume the NDJSON streaming API, nothing more.
//
// The parser follows the same sticky-error discipline as util::wire::Reader:
// every byte is bounds- and limit-checked before it is buffered, the first
// violation latches a typed Status (ParseError for malformed syntax,
// OutOfRange for exceeded limits, Unimplemented for unsupported features)
// and later input is ignored, so hostile input — oversized headers, crafted
// chunk lengths, truncation — degrades into one typed error, never
// unbounded allocation or UB.
#ifndef XSM_NET_HTTP_H_
#define XSM_NET_HTTP_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace xsm::net {

/// Hard caps the parser enforces while buffering. Every limit is checked
/// *before* memory grows, so a hostile peer cannot balloon the process by
/// claiming a large length or streaming an endless header.
struct HttpLimits {
  /// Start line + header block, terminator included.
  size_t max_header_bytes = 16 * 1024;
  size_t max_headers = 64;
  /// Decoded body bytes (Content-Length value or de-chunked total).
  size_t max_body_bytes = 8u << 20;
  /// Chunk-size line, extensions included.
  size_t max_chunk_line_bytes = 256;
  /// Trailer section after the last chunk.
  size_t max_trailer_bytes = 1024;
  /// Pipelined lookahead buffered beyond the current message.
  size_t max_pipeline_bytes = 64 * 1024;
};

/// One parsed HTTP/1.1 message. Requests fill method/target, responses fill
/// status_code/reason; everything else is shared.
struct HttpMessage {
  std::string method;   ///< requests: "GET", "POST", ...
  std::string target;   ///< requests: origin-form target, query included
  int status_code = 0;  ///< responses
  std::string reason;   ///< responses
  std::string version;  ///< "HTTP/1.1" or "HTTP/1.0"
  /// Name/value pairs in wire order; names are lowercased.
  std::vector<std::pair<std::string, std::string>> headers;
  /// Decoded body (Content-Length bytes or de-chunked data).
  std::string body;
  bool keep_alive = true;
  bool chunked = false;

  /// First header named `name` (lowercase), or nullptr.
  const std::string* FindHeader(std::string_view name) const;
};

/// Incremental push parser over one connection's byte stream. Feed() bytes
/// as they arrive; when done() the completed message is in message(), and
/// Reset() consumes it and resumes on any pipelined lookahead. failed() is
/// sticky — a connection whose parser failed must be answered (if at all)
/// and closed.
class HttpParser {
 public:
  enum class Mode { kRequest, kResponse };

  explicit HttpParser(Mode mode, const HttpLimits& limits = HttpLimits());

  /// Buffers `data` and advances the state machine as far as it can.
  /// Ignored after a failure. Bytes beyond the current message are kept as
  /// lookahead (bounded by max_pipeline_bytes) for the next Reset().
  void Feed(std::string_view data);

  /// Signals end of stream. A response being read until-EOF completes; a
  /// message truncated mid-frame fails with ParseError.
  void Finish();

  bool done() const { return state_ == State::kDone; }
  bool failed() const { return state_ == State::kError; }
  const Status& status() const { return status_; }

  /// Valid while done().
  const HttpMessage& message() const { return message_; }
  HttpMessage& message() { return message_; }

  /// Discards the completed message and starts parsing the next request
  /// from the buffered lookahead. Only meaningful while done().
  void Reset();

  /// Bytes buffered but not yet consumed by a completed message.
  size_t buffered_bytes() const { return buffer_.size(); }

  /// Unconsumed lookahead past the completed message (pipelined peers).
  const std::string& lookahead() const { return buffer_; }

  /// True when an EOF now would truncate a partially received message —
  /// as opposed to closing an idle connection between requests.
  bool midstream() const {
    return state_ != State::kDone && state_ != State::kError &&
           !(state_ == State::kHeaders && buffer_.empty() &&
             message_.method.empty());
  }

 private:
  enum class State {
    kHeaders,
    kBody,
    kBodyUntilEof,
    kChunkSize,
    kChunkData,
    kChunkDataCrlf,
    kTrailer,
    kDone,
    kError,
  };

  void Advance();
  bool ParseHeaderBlock(std::string_view block);
  bool ParseStartLine(std::string_view line);
  bool DecideFraming();
  void Fail(Status status);

  Mode mode_;
  HttpLimits limits_;
  State state_ = State::kHeaders;
  Status status_;
  HttpMessage message_;
  std::string buffer_;
  size_t header_scan_ = 0;       ///< resume point of the CRLFCRLF search
  uint64_t body_remaining_ = 0;  ///< Content-Length framing
  uint64_t chunk_remaining_ = 0;
  size_t trailer_bytes_ = 0;
};

/// Standard reason phrase for `code` ("OK", "Not Found", ...).
std::string_view ReasonPhrase(int code);

/// A complete Content-Length-framed response.
std::string SimpleResponse(int code, std::string_view content_type,
                           std::string_view body, bool keep_alive);

/// The status line + headers opening a chunked response; follow with
/// EncodeChunk() or AppendLineChunk() per payload piece and kChunkedFinal
/// to end.
std::string ChunkedResponseHead(int code, std::string_view content_type,
                                bool keep_alive);

/// One chunk frame (hex size, CRLF, data, CRLF). Empty data encodes to an
/// empty string — a zero-size chunk would terminate the stream.
std::string EncodeChunk(std::string_view data);

/// Appends EncodeChunk(line + "\n") to `out` without building either
/// string: the frame of one NDJSON event line.
void AppendLineChunk(std::string* out, std::string_view line);

/// Terminates a chunked response (zero chunk + empty trailer).
inline constexpr std::string_view kChunkedFinal = "0\r\n\r\n";

/// The HTTP status code a typed Status maps to: ParseError → 400,
/// OutOfRange → 413, Unimplemented → 501, NotFound → 404, InvalidArgument
/// → 400, FailedPrecondition → 409, DeadlineExceeded → 504, everything
/// else → 500 (OK asserts — it is not an error).
int HttpCodeForStatus(const Status& status);

/// Splits an origin-form target into decoded path segments, dropping the
/// query string: "/v1/tenants/t1/match?x=1" → {"v1", "tenants", "t1",
/// "match"}. Rejects nothing — callers route on the segments.
std::vector<std::string> SplitPathSegments(std::string_view target);

}  // namespace xsm::net

#endif  // XSM_NET_HTTP_H_
