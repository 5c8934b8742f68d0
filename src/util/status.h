// Status and Result<T>: exception-free error propagation for the public API,
// following the idiom used by production database libraries (RocksDB, Arrow).
#ifndef XSM_UTIL_STATUS_H_
#define XSM_UTIL_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace xsm {

/// Machine-readable category of an error carried by Status.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kFailedPrecondition = 4,
  kParseError = 5,
  kIOError = 6,
  kInternal = 7,
  kUnimplemented = 8,
  kCancelled = 9,
  kDeadlineExceeded = 10,
  /// Stored data failed an integrity check (truncation, CRC mismatch,
  /// internally inconsistent sections). Distinct from kParseError — the
  /// input claimed to be ours and is damaged, rather than malformed text.
  kCorruption = 11,
  /// The peer is temporarily unable to serve (admission shed, overload).
  /// Retrying later may succeed; distinct from
  /// kIOError, which reports a transport-level failure.
  kUnavailable = 12,
};

/// Returns a stable human-readable name for a status code ("OK",
/// "InvalidArgument", ...).
std::string_view StatusCodeToString(StatusCode code);

/// The code's name in lower_snake_case ("ok", "io_error", "not_found"): the
/// stable machine-readable vocabulary of NDJSON `error` events, unlike the
/// human ToString prefix.
std::string StatusCodeToSnakeCase(StatusCode code);

/// Outcome of an operation: either OK or an error code plus message.
///
/// Status is cheap to copy in the OK case (no allocation) and is used by
/// every fallible operation in the library instead of exceptions.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status. Analogous to
/// arrow::Result / absl::StatusOr.
template <typename T>
class Result {
 public:
  /// Implicit from value: allows `return value;` in functions returning
  /// Result<T>.
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit from error status. Aborts in debug builds if `status` is OK —
  /// an OK Result must carry a value.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  /// Access the contained value. Undefined if !ok().
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value or `fallback` if this holds an error.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;  // OK iff value_ present.
  std::optional<T> value_;
};

}  // namespace xsm

/// Propagates a non-OK Status from the enclosing function.
#define XSM_RETURN_NOT_OK(expr)              \
  do {                                       \
    ::xsm::Status _st = (expr);              \
    if (!_st.ok()) return _st;               \
  } while (false)

/// Evaluates a Result expression; assigns the value to `lhs` or propagates
/// the error. `lhs` may declare a new variable.
#define XSM_ASSIGN_OR_RETURN(lhs, rexpr)     \
  XSM_ASSIGN_OR_RETURN_IMPL(                 \
      XSM_CONCAT_(_xsm_result_, __LINE__), lhs, rexpr)

#define XSM_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                              \
  if (!tmp.ok()) return tmp.status();              \
  lhs = std::move(tmp).value()

#define XSM_CONCAT_(a, b) XSM_CONCAT_IMPL_(a, b)
#define XSM_CONCAT_IMPL_(a, b) a##b

#endif  // XSM_UTIL_STATUS_H_
