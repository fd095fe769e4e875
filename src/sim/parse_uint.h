// Strict unsigned parsing for command-line values, shared by fuzz_check,
// the BENCH harness and fvctl. Each caller reports a rejected value in its
// own words and exits its own way.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <optional>

namespace flowvalve::sim {

/// `s` read by strtoull's base 0 (decimal, 0x-prefixed hex, or octal after
/// a leading 0) if it is digits and nothing else (no sign, no blanks, no
/// trailing junk) and at most `max`; nullopt otherwise.
inline std::optional<std::uint64_t> parse_uint(const char* s, std::uint64_t max) {
  if (std::isdigit(static_cast<unsigned char>(s[0])) == 0) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 0);
  if (*end != '\0' || errno == ERANGE || v > max) return std::nullopt;
  return v;
}

}  // namespace flowvalve::sim
