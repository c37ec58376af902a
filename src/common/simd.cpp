#include "common/simd.h"

#include <atomic>

#include "common/simd_kernels.h"

#ifndef OSRS_SIMD_ENABLED
#define OSRS_SIMD_ENABLED 0
#endif

namespace osrs::simd {

namespace internal {
#if OSRS_SIMD_ENABLED
// Defined in simd_avx2.cpp, the only TU compiled with -mavx2. Keeping the
// intrinsics in their own TU means no AVX2 instruction can leak into code
// that runs before the cpuid dispatch.
double GainReduceAvx2(const int32_t* endpoints, const uint8_t* distances,
                      size_t n, const float* best,
                      const double* target_weights);
double ApplyPickMinAvx2(const int32_t* endpoints, const uint8_t* distances,
                        size_t n, float* best, const double* target_weights);
#endif
}  // namespace internal

namespace {

// -1 = automatic; otherwise the int value of the forced Backend.
std::atomic<int> g_forced_backend{-1};

bool CpuSupportsAvx2() {
#if OSRS_SIMD_ENABLED
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace

bool Avx2CompiledIn() { return OSRS_SIMD_ENABLED != 0; }

bool Avx2Available() {
  static const bool available = Avx2CompiledIn() && CpuSupportsAvx2();
  return available;
}

Backend ActiveBackend() {
  int forced = g_forced_backend.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Backend>(forced);
  return Avx2Available() ? Backend::kAvx2 : Backend::kScalar;
}

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Backend ForceBackend(Backend backend) {
  if (backend == Backend::kAvx2 && !Avx2Available()) {
    backend = Backend::kScalar;
  }
  g_forced_backend.store(static_cast<int>(backend),
                         std::memory_order_relaxed);
  return backend;
}

void ResetBackendOverride() {
  g_forced_backend.store(-1, std::memory_order_relaxed);
}

double GainReduce(const int32_t* endpoints, const uint8_t* distances,
                  size_t n, const float* best, const double* target_weights) {
#if OSRS_SIMD_ENABLED
  if (ActiveBackend() == Backend::kAvx2) {
    return internal::GainReduceAvx2(endpoints, distances, n, best,
                                    target_weights);
  }
#endif
  return detail::GainReduceImpl<detail::ScalarOps>(endpoints, distances, n,
                                                   best, target_weights);
}

double ApplyPickMin(const int32_t* endpoints, const uint8_t* distances,
                    size_t n, float* best, const double* target_weights) {
#if OSRS_SIMD_ENABLED
  if (ActiveBackend() == Backend::kAvx2) {
    return internal::ApplyPickMinAvx2(endpoints, distances, n, best,
                                      target_weights);
  }
#endif
  return detail::ApplyPickMinImpl<detail::ScalarOps>(endpoints, distances, n,
                                                     best, target_weights);
}

}  // namespace osrs::simd
