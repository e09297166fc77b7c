// Status / StatusOr: Arrow/absl-style error propagation without exceptions.
//
// Library code returns Status (or StatusOr<T>) for failures that are expected
// in normal operation: malformed queries, type errors, and exhausted
// resources (a task's retry budget, the spill byte budget). Invariant
// violations use TRANCE_CHECK and abort.
#ifndef TRANCE_UTIL_STATUS_H_
#define TRANCE_UTIL_STATUS_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <variant>

namespace trance {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kTypeError,
  kNotImplemented,
  kResourceExhausted,  // retry budget or spill byte budget exhausted
  kInternal,
  kKeyError,
};

/// Result of an operation that can fail without a value payload.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status Invalid(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status KeyError(std::string msg) {
    return Status(StatusCode::kKeyError, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// True when a budget ran out: a task's retry budget or the spill byte
  /// budget.
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }

  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& s);

/// Either a value of type T or an error Status.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : repr_(std::move(status)) {}  // NOLINT(runtime/explicit)
  StatusOr(T value) : repr_(std::move(value)) {}         // NOLINT(runtime/explicit)

  bool ok() const { return std::holds_alternative<T>(repr_); }
  const Status& status() const {
    static const Status kOk = Status::OK();
    if (ok()) return kOk;
    return std::get<Status>(repr_);
  }
  T& value() & { return std::get<T>(repr_); }
  const T& value() const& { return std::get<T>(repr_); }
  T&& value() && { return std::get<T>(std::move(repr_)); }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  /// Returns the value or aborts with the error; for tests and examples.
  T ValueOrDie() && {
    if (!ok()) {
      std::cerr << "StatusOr::ValueOrDie on error: " << status().ToString()
                << std::endl;
      std::abort();
    }
    return std::get<T>(std::move(repr_));
  }

 private:
  std::variant<Status, T> repr_;
};

#define TRANCE_RETURN_NOT_OK(expr)                 \
  do {                                             \
    ::trance::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                     \
  } while (0)

#define TRANCE_CONCAT_IMPL(a, b) a##b
#define TRANCE_CONCAT(a, b) TRANCE_CONCAT_IMPL(a, b)

#define TRANCE_ASSIGN_OR_RETURN(lhs, rexpr)                      \
  auto TRANCE_CONCAT(_statusor_, __LINE__) = (rexpr);            \
  if (!TRANCE_CONCAT(_statusor_, __LINE__).ok())                 \
    return TRANCE_CONCAT(_statusor_, __LINE__).status();         \
  lhs = std::move(TRANCE_CONCAT(_statusor_, __LINE__)).value()

/// Aborts when `cond` is false; for internal invariants only.
#define TRANCE_CHECK(cond, msg)                                         \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::cerr << "TRANCE_CHECK failed at " << __FILE__ << ":"         \
                << __LINE__ << ": " << (msg) << std::endl;              \
      std::abort();                                                     \
    }                                                                   \
  } while (0)

}  // namespace trance

#endif  // TRANCE_UTIL_STATUS_H_
