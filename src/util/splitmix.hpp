// splitmix64 — the one seedable 64-bit mixer in the repo. It seeds Rng's
// xoshiro256** state and drives the draws that need no Rng stream: fault
// schedules (FaultInjector) and NetClient's backoff jitter.
#pragma once

#include <cstdint>

namespace pecan::util {

/// Advances `state` and returns its next output.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Uniform double in [0, 1) from the top 53 bits of the next output.
inline double unit_draw(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

}  // namespace pecan::util
