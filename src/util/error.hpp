// Error handling primitives for the COMPACT library.
//
// The library reports unrecoverable logic errors and invalid input via
// exceptions derived from compact::error, following the C++ Core Guidelines
// (E.2: throw an exception to signal that a function can't perform its task).
#pragma once

#include <stdexcept>
#include <string>

namespace compact {

/// Base class for all exceptions thrown by this library.
class error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when an input file or textual format cannot be parsed.
class parse_error : public error {
 public:
  using error::error;
};

/// Thrown when requested design constraints are infeasible
/// (e.g. fixed row/column budgets that no labeling can satisfy).
class infeasible_error : public error {
 public:
  using error::error;
};

/// Thrown when a run exceeds an explicit resource budget (memory limit or
/// deadline) installed by the resource watchdog. Carries which limit
/// tripped so callers and the CLI can report "memory" vs "deadline"
/// structurally instead of parsing the message.
class resource_limit_error : public error {
 public:
  enum class kind { memory, deadline };

  resource_limit_error(kind which, const std::string& message)
      : error(message), kind_(which) {}

  [[nodiscard]] kind limit_kind() const { return kind_; }
  [[nodiscard]] const char* kind_name() const {
    return kind_ == kind::memory ? "memory" : "deadline";
  }

 private:
  kind kind_;
};

/// Internal consistency check. Unlike assert(), it is active in all build
/// types: mapping bugs must never silently produce an invalid crossbar.
/// String literals take this overload, so a passing check builds no string.
inline void check(bool condition, const char* message) {
  if (!condition)
    throw error(std::string("internal check failed: ") + message);
}

/// As above, for messages assembled at the call site.
inline void check(bool condition, const std::string& message) {
  if (!condition) throw error("internal check failed: " + message);
}

}  // namespace compact
