#ifndef OSRS_COMMON_SIMD_KERNELS_H_
#define OSRS_COMMON_SIMD_KERNELS_H_

// Implementation detail of common/simd.h: the two solver kernels written
// once as templates over a lane-ops policy, instantiated twice — with
// ScalarOps (below) into the always-available fallback, and with the AVX2
// intrinsic policy (simd_avx2.cpp) into the vector backend. Both
// instantiations execute the *same* sequence of IEEE operations per
// element and the same fixed lane-striped accumulation order, which is
// what makes the backends bit-identical by construction rather than by
// tolerance (proven by tests/solver_simd_diff_test.cpp).
//
// The accumulation-order contract (documented in DESIGN.md):
//   - distances arrive as the graph's one-byte lane and are converted to
//     float exactly (every value 0..255 is representable);
//   - element i contributes to accumulator stripe i % 8 (stripes 0-3 in
//     the "lo" register, 4-7 in "hi");
//   - a contribution is double(float(best - d)) [· tw], i.e. the
//     improvement is computed as one float subtraction, widened exactly,
//     then multiplied by the double multiplicity in one double rounding —
//     no FMA anywhere, so scalar mul+add matches the vector path;
//   - stripes reduce as ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7));
//   - short tails are padded to a full 8-lane chunk with float distance
//     +inf (a padded lane's improvement is -inf, masked to a zero
//     contribution) and endpoint 0 (a harmless in-bounds gather).

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace osrs::simd::detail {

/// The reference lane policy: fixed-size arrays and per-lane loops. The
/// compiler may auto-vectorize these loops — that is fine, auto
/// vectorization preserves IEEE semantics — but no manual intrinsics and
/// no target flags are involved, so this backend runs on any CPU.
struct ScalarOps {
  struct F32 {
    float v[8];
  };
  struct I32 {
    int32_t v[8];
  };
  struct F64 {
    double v[4];
  };

  static F32 LoadF32(const float* p) {
    F32 r;
    for (int j = 0; j < 8; ++j) r.v[j] = p[j];
    return r;
  }
  static F32 LoadU8AsF32(const uint8_t* p) {
    F32 r;
    for (int j = 0; j < 8; ++j) r.v[j] = static_cast<float>(p[j]);
    return r;
  }
  static I32 LoadI32(const int32_t* p) {
    I32 r;
    for (int j = 0; j < 8; ++j) r.v[j] = p[j];
    return r;
  }
  static F32 GatherF32(const float* base, I32 idx) {
    F32 r;
    for (int j = 0; j < 8; ++j) r.v[j] = base[idx.v[j]];
    return r;
  }
  static F64 GatherF64Lo(const double* base, I32 idx) {
    F64 r;
    for (int j = 0; j < 4; ++j) r.v[j] = base[idx.v[j]];
    return r;
  }
  static F64 GatherF64Hi(const double* base, I32 idx) {
    F64 r;
    for (int j = 0; j < 4; ++j) r.v[j] = base[idx.v[4 + j]];
    return r;
  }
  static F32 SubF32(F32 a, F32 b) {
    F32 r;
    for (int j = 0; j < 8; ++j) r.v[j] = a.v[j] - b.v[j];
    return r;
  }
  static F64 WidenLo(F32 x) {
    F64 r;
    for (int j = 0; j < 4; ++j) r.v[j] = static_cast<double>(x.v[j]);
    return r;
  }
  static F64 WidenHi(F32 x) {
    F64 r;
    for (int j = 0; j < 4; ++j) r.v[j] = static_cast<double>(x.v[4 + j]);
    return r;
  }
  static F64 ZeroF64() { return F64{{0.0, 0.0, 0.0, 0.0}}; }
  static F64 MulF64(F64 a, F64 b) {
    F64 r;
    for (int j = 0; j < 4; ++j) r.v[j] = a.v[j] * b.v[j];
    return r;
  }
  static F64 AddF64(F64 a, F64 b) {
    F64 r;
    for (int j = 0; j < 4; ++j) r.v[j] = a.v[j] + b.v[j];
    return r;
  }
  /// value where gate > 0, else +0.0 (the vector backend's and-with-mask).
  static F64 MaskPositive(F64 value, F64 gate) {
    F64 r;
    for (int j = 0; j < 4; ++j) r.v[j] = gate.v[j] > 0.0 ? value.v[j] : 0.0;
    return r;
  }
  /// Bit j set iff x[j] > 0.
  static int PositiveMask8(F32 x) {
    int m = 0;
    for (int j = 0; j < 8; ++j) m |= (x.v[j] > 0.0f) ? (1 << j) : 0;
    return m;
  }
  /// ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)) — the fixed reduction tree.
  static double ReduceTree(F64 lo, F64 hi) {
    double t0 = lo.v[0] + hi.v[0];
    double t1 = lo.v[1] + hi.v[1];
    double t2 = lo.v[2] + hi.v[2];
    double t3 = lo.v[3] + hi.v[3];
    return (t0 + t2) + (t1 + t3);
  }
};

/// Calls `step(e8, d8, d)` once per 8-lane chunk of a SoA CSR row: `e8`
/// and `d8` point at the chunk's endpoints and byte distances, `d` holds
/// the distances as floats. The tail chunk runs on padded copies:
/// endpoint 0, byte 0 and float distance +inf in the padded lanes.
template <typename Ops, typename Step>
void ForEachChunk(const int32_t* endpoints, const uint8_t* distances,
                  size_t n, const Step& step) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    step(endpoints + i, distances + i, Ops::LoadU8AsF32(distances + i));
  }
  if (i < n) {
    alignas(64) int32_t ep_pad[8];
    alignas(64) uint8_t d8_pad[8];
    alignas(64) float d_pad[8];
    for (size_t j = 0; j < 8; ++j) {
      const bool live = i + j < n;
      ep_pad[j] = live ? endpoints[i + j] : 0;
      d8_pad[j] = live ? distances[i + j] : uint8_t{0};
      d_pad[j] = live ? static_cast<float>(distances[i + j])
                      : std::numeric_limits<float>::infinity();
    }
    step(ep_pad, d8_pad, Ops::LoadF32(d_pad));
  }
}

/// Adds chunk `e8`'s contributions Σ max(0, best − d) [· tw] to the two
/// stripe accumulators and returns the float improvements best − d.
template <typename Ops>
typename Ops::F32 AccumulateImprovement(const int32_t* e8,
                                        typename Ops::F32 d,
                                        const float* best, const double* tw,
                                        typename Ops::F64& acc_lo,
                                        typename Ops::F64& acc_hi) {
  typename Ops::I32 idx = Ops::LoadI32(e8);
  typename Ops::F32 imp = Ops::SubF32(Ops::GatherF32(best, idx), d);
  typename Ops::F64 lo = Ops::WidenLo(imp);
  typename Ops::F64 hi = Ops::WidenHi(imp);
  typename Ops::F64 vlo =
      tw != nullptr ? Ops::MulF64(lo, Ops::GatherF64Lo(tw, idx)) : lo;
  typename Ops::F64 vhi =
      tw != nullptr ? Ops::MulF64(hi, Ops::GatherF64Hi(tw, idx)) : hi;
  acc_lo = Ops::AddF64(acc_lo, Ops::MaskPositive(vlo, lo));
  acc_hi = Ops::AddF64(acc_hi, Ops::MaskPositive(vhi, hi));
  return imp;
}

/// K1 — marginal-gain reduction over one SoA CSR row. See the contract in
/// the file comment; `tw` may be null (all multiplicities 1).
template <typename Ops>
double GainReduceImpl(const int32_t* endpoints, const uint8_t* distances,
                      size_t n, const float* best, const double* tw) {
  typename Ops::F64 acc_lo = Ops::ZeroF64();
  typename Ops::F64 acc_hi = Ops::ZeroF64();
  ForEachChunk<Ops>(endpoints, distances, n,
                    [&](const int32_t* e8, const uint8_t*,
                        typename Ops::F32 d) {
                      AccumulateImprovement<Ops>(e8, d, best, tw, acc_lo,
                                                 acc_hi);
                    });
  return Ops::ReduceTree(acc_lo, acc_hi);
}

/// K2 — post-pick min-update with cost delta. Endpoints within a row are
/// unique (CSR construction guarantees it), so the gather-before-store
/// inside one chunk can never observe a stale lane.
template <typename Ops>
double ApplyPickMinImpl(const int32_t* endpoints, const uint8_t* distances,
                        size_t n, float* best, const double* tw) {
  typename Ops::F64 acc_lo = Ops::ZeroF64();
  typename Ops::F64 acc_hi = Ops::ZeroF64();
  ForEachChunk<Ops>(
      endpoints, distances, n,
      [&](const int32_t* e8, const uint8_t* d8, typename Ops::F32 d) {
        typename Ops::F32 imp =
            AccumulateImprovement<Ops>(e8, d, best, tw, acc_lo, acc_hi);
        // d < best[w]  ⇔  best[w] - d > 0 for finite floats (a subtraction
        // of distinct finite values is never exactly zero), so the store
        // mask can reuse the improvement sign. Padded lanes (d = +inf)
        // never pass it.
        int m = Ops::PositiveMask8(imp);
        while (m != 0) {
          int lane = std::countr_zero(static_cast<unsigned>(m));
          best[e8[lane]] = static_cast<float>(d8[lane]);
          m &= m - 1;
        }
      });
  return Ops::ReduceTree(acc_lo, acc_hi);
}

}  // namespace osrs::simd::detail

#endif  // OSRS_COMMON_SIMD_KERNELS_H_
