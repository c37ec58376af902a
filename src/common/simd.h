#ifndef OSRS_COMMON_SIMD_H_
#define OSRS_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

// Portable SIMD layer for the solver hot kernels. Two backends compiled
// from the same kernel template (common/simd_kernels.h): a scalar
// fallback that builds everywhere, and an AVX2 backend compiled into a
// separate translation unit with -mavx2 when the OSRS_SIMD cmake option
// is ON and the toolchain targets x86-64. Dispatch is at runtime via
// cpuid, so an OSRS_SIMD=ON binary still runs correctly on a pre-AVX2
// machine.
//
// The backends are bit-identical, not merely close: both follow the same
// fixed accumulation-order contract (see simd_kernels.h and DESIGN.md,
// "Performance architecture"), which tests/solver_simd_diff_test.cpp
// verifies end-to-end on randomized graphs.

namespace osrs::simd {

enum class Backend {
  kScalar = 0,
  kAvx2 = 1,
};

/// True when the AVX2 translation unit was compiled in (OSRS_SIMD=ON on a
/// toolchain that accepts -mavx2).
bool Avx2CompiledIn();

/// True when AVX2 is compiled in AND this CPU reports AVX2 support.
bool Avx2Available();

/// The backend the kernels below will use: an explicit override if one is
/// installed, else the best available backend.
Backend ActiveBackend();

const char* BackendName(Backend backend);

/// Testing/bench override. A request for kAvx2 degrades to kScalar when
/// AVX2 is unavailable; returns the backend actually installed. Not
/// synchronized — call only from single-threaded setup code (the diff
/// test, bench mains).
Backend ForceBackend(Backend backend);

/// Returns to automatic (best-available) backend selection.
void ResetBackendOverride();

/// Accumulation stripes of the reduction kernels; part of the fixed
/// accumulation-order contract.
inline constexpr int kAccumulatorLanes = 8;

/// K1 — greedy marginal-gain kernel over one SoA CSR row:
///   Σ_i max(0, best[endpoints[i]] − distances[i]) · tw[endpoints[i]]
/// The distances are the graph's one-byte lane, converted to float
/// exactly; the improvement is one float subtraction (exact: coverage
/// distances are integral hop counts), widened to double, then weighted by
/// the double multiplicity lane. `target_weights` may be null (all ones).
double GainReduce(const int32_t* endpoints, const uint8_t* distances,
                  size_t n, const float* best,
                  const double* target_weights);

/// K2 — per-target best-distance update after a greedy pick: for every
/// edge with distances[i] < best[endpoints[i]], stores the new minimum
/// and accumulates (old − new) · tw into the returned cost decrease.
/// Endpoints within the row must be unique (CSR rows are).
double ApplyPickMin(const int32_t* endpoints, const uint8_t* distances,
                    size_t n, float* best, const double* target_weights);

}  // namespace osrs::simd

#endif  // OSRS_COMMON_SIMD_H_
