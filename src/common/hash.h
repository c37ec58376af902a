#ifndef OSRS_COMMON_HASH_H_
#define OSRS_COMMON_HASH_H_

// The splitmix64 mixer (Steele, Lea & Flood, "Fast splittable pseudorandom
// number generators", OOPSLA 2014): the one cheap full-avalanche 64-bit
// hash in the tree. Header inline because the coverage builder's dedupe
// hash runs inside the graph build.

#include <cstdint>

namespace osrs {

/// The splitmix64 state increment (2^64 / golden ratio, odd).
inline constexpr uint64_t kSplitMix64Gamma = 0x9E3779B97F4A7C15ull;

/// splitmix64 finalizer: a bijective full-avalanche mix of `h`.
inline uint64_t Mix64(uint64_t h) {
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 31;
  return h;
}

/// One step of the splitmix64 generator: advances `state` by the gamma and
/// returns the mixed new state.
inline uint64_t SplitMix64(uint64_t& state) {
  return Mix64(state += kSplitMix64Gamma);
}

}  // namespace osrs

#endif  // OSRS_COMMON_HASH_H_
