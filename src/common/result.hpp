// Minimal expected-style result type.
//
// Library code reports recoverable failures through Result<T> rather than
// exceptions; exceptions are reserved for programming errors (contract
// violations asserted via CANARY_CHECK).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <variant>

namespace canary {

enum class ErrorCode {
  kInvalidArgument,
  kNotFound,
  kResourceExhausted,
  kUnavailable,
  kInternal,
};

std::string_view to_string_view(ErrorCode code);

struct Error {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;

  static Error invalid_argument(std::string msg) {
    return {ErrorCode::kInvalidArgument, std::move(msg)};
  }
  static Error not_found(std::string msg) {
    return {ErrorCode::kNotFound, std::move(msg)};
  }
  static Error resource_exhausted(std::string msg) {
    return {ErrorCode::kResourceExhausted, std::move(msg)};
  }
  static Error unavailable(std::string msg) {
    return {ErrorCode::kUnavailable, std::move(msg)};
  }
  static Error internal(std::string msg) {
    return {ErrorCode::kInternal, std::move(msg)};
  }
};

inline std::string_view to_string_view(ErrorCode code) {
  switch (code) {
    case ErrorCode::kInvalidArgument: return "invalid_argument";
    case ErrorCode::kNotFound: return "not_found";
    case ErrorCode::kResourceExhausted: return "resource_exhausted";
    case ErrorCode::kUnavailable: return "unavailable";
    case ErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : v_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Error err) : v_(std::move(err)) {}  // NOLINT(google-explicit-constructor)

  bool ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return ok(); }

  const T& value() const& { return std::get<T>(v_); }
  T& value() & { return std::get<T>(v_); }
  T&& value() && { return std::get<T>(std::move(v_)); }

  const Error& error() const { return std::get<Error>(v_); }

  T value_or(T fallback) const {
    return ok() ? std::get<T>(v_) : std::move(fallback);
  }

 private:
  std::variant<T, Error> v_;
};

/// Result specialisation for operations with no payload.
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(Error err) : err_(std::move(err)), ok_(false) {}  // NOLINT

  static Status ok_status() { return Status{}; }

  bool ok() const { return ok_; }
  explicit operator bool() const { return ok_; }
  const Error& error() const { return err_; }

 private:
  Error err_{};
  bool ok_ = true;
};

/// Contract check: aborts with a message on violation. Used for invariants
/// that indicate bugs, never for input validation.
#define CANARY_CHECK(cond, msg)                                          \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "CANARY_CHECK failed at %s:%d: %s (%s)\n",    \
                   __FILE__, __LINE__, #cond, msg);                      \
      std::abort();                                                      \
    }                                                                    \
  } while (0)

}  // namespace canary
