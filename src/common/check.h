// Lightweight runtime checking. We prefer throwing over aborting so that
// library consumers (and tests) can observe contract violations.
#pragma once

#include <cstddef>
#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace mlsim {

/// Thrown when a library precondition or internal invariant is violated.
class CheckError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Thrown for file-system level failures (cannot open, short write, rename
/// failed). Distinct from CheckError, which signals corrupt *content* or a
/// violated invariant — drivers map the two to different exit codes.
class IoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when a graceful drain (SIGTERM/SIGINT) stops a run before it
/// completes. Not a failure: in-flight work was allowed to finish, progress
/// was journaled for `--resume`, and drivers map this to its own exit code
/// so supervisors can tell "drained on request" from every error class.
class DrainError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {

// The failure paths: formatting the message and throwing stay out of line,
// so every check() / check_index() inlines to a compare and a branch.
[[noreturn, gnu::cold, gnu::noinline]] void check_failed(
    std::string_view msg, const std::source_location& loc);
[[noreturn, gnu::cold, gnu::noinline]] void check_index_failed(
    std::size_t v, std::size_t hi, std::string_view what,
    const std::source_location& loc);

}  // namespace detail

/// Verify `cond`; throw CheckError annotated with the call site otherwise.
inline void check(bool cond, std::string_view msg,
                  std::source_location loc = std::source_location::current()) {
  if (!cond) [[unlikely]] detail::check_failed(msg, loc);
}

/// Verify `lo <= v < hi` for index-style arguments.
inline void check_index(std::size_t v, std::size_t hi, std::string_view what,
                        std::source_location loc = std::source_location::current()) {
  if (v >= hi) [[unlikely]] detail::check_index_failed(v, hi, what, loc);
}

}  // namespace mlsim
