#ifndef OSRS_COMMON_THREAD_COUNT_H_
#define OSRS_COMMON_THREAD_COUNT_H_

#include <algorithm>
#include <thread>

namespace osrs {

/// Resolves a thread-count knob: a positive `requested` is returned as is,
/// and zero or negative means the hardware concurrency (at least 1).
/// Callers validate and clamp the result for their own use.
inline int ResolveThreadCount(int requested) {
  if (requested > 0) return requested;
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace osrs

#endif  // OSRS_COMMON_THREAD_COUNT_H_
