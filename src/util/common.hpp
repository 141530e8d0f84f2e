// Common error-handling and basic types shared by all dragonviz modules.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace dv {

/// Error thrown for violated preconditions and invalid user input.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] void fail(const std::string& msg);
[[noreturn]] void fail_invariant(const char* expr, const char* file, int line,
                                 const std::string& msg);
}  // namespace detail

/// Precondition check on user-facing API boundaries; throws dv::Error
/// carrying `msg` alone, which is all the user needs to read.
#define DV_REQUIRE(cond, msg)                                              \
  do {                                                                     \
    if (!(cond)) ::dv::detail::fail(msg);                                  \
  } while (0)

/// Internal invariant check; throws dv::Error naming the expression and
/// its line, with the file relative to the source root (kept on in
/// release builds — simulation correctness matters more than the branch
/// cost).
#define DV_CHECK(cond, msg)                                                \
  do {                                                                     \
    if (!(cond)) ::dv::detail::fail_invariant(#cond, __FILE__, __LINE__,   \
                                              (msg));                      \
  } while (0)

/// Simulated time in nanoseconds.
using SimTime = double;

}  // namespace dv
