// FNV-1a, 64-bit: the one byte hash behind Rng stream names, fuzz_check's
// corpus digest and the trace tests' digests. Byte-serial and weak on
// short keys, so it is for names and fingerprints, not hash tables.
#pragma once

#include <cstdint>
#include <string_view>

namespace flowvalve::sim {

class Fnv1a {
 public:
  constexpr void byte(std::uint8_t b) { h_ = (h_ ^ b) * kPrime; }
  constexpr void bytes(std::string_view s) {
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  /// The eight bytes of `v`, least significant first.
  constexpr void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  constexpr std::uint64_t value() const { return h_; }

 private:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t h_ = kOffsetBasis;
};

constexpr std::uint64_t fnv1a(std::string_view s) {
  Fnv1a h;
  h.bytes(s);
  return h.value();
}

}  // namespace flowvalve::sim
