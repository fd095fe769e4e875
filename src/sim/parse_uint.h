// Strict unsigned parsing for command-line values, shared by fuzz_check,
// the BENCH harness and fvctl. Each caller reports a rejected value in its
// own words and exits its own way.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstring>
#include <optional>
#include <system_error>

namespace flowvalve::sim {

/// `s` read as hex after a 0x or 0X prefix and as decimal otherwise (a
/// leading 0 is just a digit: "010" is ten), if it is digits and nothing
/// else (no sign, no blanks, no trailing junk) and at most `max`; nullopt
/// otherwise.
inline std::optional<std::uint64_t> parse_uint(const char* s, std::uint64_t max) {
  const bool hex = s[0] == '0' && (s[1] == 'x' || s[1] == 'X');
  const char* first = hex ? s + 2 : s;
  const char* last = first + std::strlen(first);
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(first, last, v, hex ? 16 : 10);
  if (ec != std::errc() || end != last || v > max) return std::nullopt;
  return v;
}

}  // namespace flowvalve::sim
