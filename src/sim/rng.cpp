#include "sim/rng.h"

#include <cassert>
#include <cmath>

#include "sim/fnv.h"

namespace flowvalve::sim {
namespace {

// splitmix64 — used to expand seeds into full generator state.
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t x = seed;
  for (auto& w : s_) w = splitmix64(x);
}

Rng::Rng(std::uint64_t seed, const std::uint64_t state[4]) : seed_(seed) {
  for (int i = 0; i < 4; ++i) s_[i] = state[i];
}

Rng Rng::split(std::string_view component_name) const {
  return split(fnv1a(component_name));
}

Rng Rng::split(std::uint64_t index) const {
  // Mix the child's index into a fresh splitmix expansion of our seed so
  // child streams neither overlap each other nor the parent.
  std::uint64_t x = seed_ ^ (index * 0x9e3779b97f4a7c15ULL) ^ 0xa5a5a5a55a5a5a5aULL;
  std::uint64_t st[4];
  for (auto& w : st) w = splitmix64(x);
  return Rng(x, st);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  assert(bound != 0);
  // Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * next_double(); }

double Rng::exponential(double mean) {
  assert(mean > 0.0);
  double u = next_double();
  // Guard against log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  double acc = 0.0;
  for (int i = 0; i < 12; ++i) acc += next_double();
  return mean + (acc - 6.0) * stddev;
}

bool Rng::chance(double p) { return next_double() < p; }

}  // namespace flowvalve::sim
