// The AVX2 backend: the kernel templates from simd_kernels.h instantiated
// with an intrinsic lane policy. This is the only translation unit built
// with -mavx2 (see src/common/CMakeLists.txt); callers reach it through
// the runtime-dispatched wrappers in simd.cpp, never directly, so no AVX2
// instruction executes before the cpuid check passes.
//
// Every op maps 1:1 onto a ScalarOps op with identical IEEE semantics:
// cvtepu8_epi32 + cvtepi32_ps ↔ the exact byte-to-float conversion,
// sub_ps ↔ per-lane float subtraction, cvtps_pd ↔ exact widening,
// and_pd with a compare mask ↔ the ternary in ScalarOps::MaskPositive
// (an all-ones mask ANDed with a double reproduces its bits exactly;
// all-zeros yields +0.0, same as the scalar else-branch). No FMA is used
// anywhere — that is part of the accumulation-order contract.

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "common/simd_kernels.h"

namespace osrs::simd::internal {

namespace {

struct Avx2Ops {
  using F32 = __m256;
  using I32 = __m256i;
  using F64 = __m256d;

  static F32 LoadF32(const float* p) { return _mm256_loadu_ps(p); }
  static F32 LoadU8AsF32(const uint8_t* p) {
    // 8 bytes → 8 zero-extended int32 → 8 floats; exact for 0..255.
    const __m128i bytes = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
    return _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(bytes));
  }
  static I32 LoadI32(const int32_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static F32 GatherF32(const float* base, I32 idx) {
    return _mm256_i32gather_ps(base, idx, 4);
  }
  static F64 GatherF64(const double* base, __m128i idx) {
    // The masked form with an explicit zero source: same gather, but no
    // _mm256_undefined_pd() operand (GCC 12 flags the unmasked intrinsic
    // with -Wmaybe-uninitialized). The all-ones mask selects every lane.
    const F64 all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, idx, all, 8);
  }
  static F64 GatherF64Lo(const double* base, I32 idx) {
    return GatherF64(base, _mm256_castsi256_si128(idx));
  }
  static F64 GatherF64Hi(const double* base, I32 idx) {
    return GatherF64(base, _mm256_extracti128_si256(idx, 1));
  }
  static F32 SubF32(F32 a, F32 b) { return _mm256_sub_ps(a, b); }
  static F64 WidenLo(F32 x) {
    return _mm256_cvtps_pd(_mm256_castps256_ps128(x));
  }
  static F64 WidenHi(F32 x) {
    return _mm256_cvtps_pd(_mm256_extractf128_ps(x, 1));
  }
  static F64 ZeroF64() { return _mm256_setzero_pd(); }
  static F64 MulF64(F64 a, F64 b) { return _mm256_mul_pd(a, b); }
  static F64 AddF64(F64 a, F64 b) { return _mm256_add_pd(a, b); }
  static F64 MaskPositive(F64 value, F64 gate) {
    return _mm256_and_pd(
        value, _mm256_cmp_pd(gate, _mm256_setzero_pd(), _CMP_GT_OQ));
  }
  static int PositiveMask8(F32 x) {
    return _mm256_movemask_ps(
        _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_GT_OQ));
  }
  static double ReduceTree(F64 lo, F64 hi) {
    // (s0+s4, s1+s5, s2+s6, s3+s7), then the same tree as ScalarOps:
    // ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)).
    F64 t = _mm256_add_pd(lo, hi);
    __m128d t01 = _mm256_castpd256_pd128(t);        // (t0, t1)
    __m128d t23 = _mm256_extractf128_pd(t, 1);      // (t2, t3)
    __m128d s = _mm_add_pd(t01, t23);               // (t0+t2, t1+t3)
    return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
  }
};

}  // namespace

double GainReduceAvx2(const int32_t* endpoints, const uint8_t* distances,
                      size_t n, const float* best,
                      const double* target_weights) {
  return detail::GainReduceImpl<Avx2Ops>(endpoints, distances, n, best,
                                         target_weights);
}

double ApplyPickMinAvx2(const int32_t* endpoints, const uint8_t* distances,
                        size_t n, float* best, const double* target_weights) {
  return detail::ApplyPickMinImpl<Avx2Ops>(endpoints, distances, n, best,
                                           target_weights);
}

}  // namespace osrs::simd::internal
