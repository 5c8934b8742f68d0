#include "util/status.h"

#include <cctype>

namespace xsm {

std::string_view StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kParseError:
      return "ParseError";
    case StatusCode::kIOError:
      return "IOError";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kCancelled:
      return "Cancelled";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kUnavailable:
      return "Unavailable";
  }
  return "Unknown";
}

std::string StatusCodeToSnakeCase(StatusCode code) {
  std::string_view camel = StatusCodeToString(code);
  std::string snake;
  for (size_t i = 0; i < camel.size(); ++i) {
    unsigned char c = camel[i];
    bool boundary =
        i > 0 && std::isupper(c) &&
        (std::islower(static_cast<unsigned char>(camel[i - 1])) ||
         (i + 1 < camel.size() &&
          std::islower(static_cast<unsigned char>(camel[i + 1]))));
    if (boundary) snake += '_';
    snake += static_cast<char>(std::tolower(c));
  }
  return snake;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out(StatusCodeToString(code_));
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace xsm
