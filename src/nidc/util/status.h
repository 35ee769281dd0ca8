// Status / Result error handling, modelled after the idiom used by
// LevelDB/RocksDB and Apache Arrow: fallible operations return a Status (or a
// Result<T> carrying a value), never throw across the public API boundary.

#ifndef NIDC_UTIL_STATUS_H_
#define NIDC_UTIL_STATUS_H_

#include <string>
#include <utility>
#include <variant>

namespace nidc {

/// Machine-readable classification of a failure.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kFailedPrecondition,
  kIOError,
  kInternal,
};

/// Returns a short human-readable name for a status code ("InvalidArgument").
const char* StatusCodeToString(StatusCode code);

/// Outcome of a fallible operation: a code plus an optional message.
///
/// An OK status carries no message and is cheap to copy. Use the static
/// factories (`Status::OK()`, `Status::InvalidArgument(...)`) to construct.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<Code>: <message>".
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

/// One shared OK status, for accessors that return a Status reference.
/// Defined out of line: a function-local static inside Result::status()
/// makes gcc 12 report the variant's Status alternative as
/// maybe-uninitialized wherever a Result<T> holding a T is destroyed.
const Status& OkStatus();

/// Either a value of type T or an error Status. Accessing the value of an
/// errored Result is a programming error (asserted in debug builds).
template <typename T>
class Result {
 public:
  /* implicit */ Result(T value) : repr_(std::move(value)) {}
  /* implicit */ Result(Status status) : repr_(std::move(status)) {}

  bool ok() const { return std::holds_alternative<T>(repr_); }

  const Status& status() const {
    if (ok()) return OkStatus();
    return std::get<Status>(repr_);
  }

  const T& value() const& { return std::get<T>(repr_); }
  T& value() & { return std::get<T>(repr_); }
  T&& value() && { return std::get<T>(std::move(repr_)); }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the contained value, or `fallback` on error.
  T value_or(T fallback) const {
    return ok() ? value() : std::move(fallback);
  }

 private:
  std::variant<T, Status> repr_;
};

/// Propagates a non-OK status to the caller.
#define NIDC_RETURN_NOT_OK(expr)                \
  do {                                          \
    ::nidc::Status _st = (expr);                \
    if (!_st.ok()) return _st;                  \
  } while (0)

}  // namespace nidc

#endif  // NIDC_UTIL_STATUS_H_
