#include "common/rng.h"

#include <cmath>
#include <numeric>

#include "common/hash.h"
#include "common/logging.h"

namespace osrs {
namespace {

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextUint64(uint64_t bound) {
  OSRS_CHECK_GT(bound, 0u);
  // Lemire's nearly-divisionless unbiased bounded sampling.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t t = -bound % bound;
    while (l < t) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  OSRS_CHECK_LE(lo, hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(Next());  // full 64-bit range
  return lo + static_cast<int64_t>(NextUint64(span));
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::NextDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  // Box-Muller; draw u1 away from zero to keep log() finite.
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  double u2 = NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Rng::NextGaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

uint64_t Rng::NextZipf(uint64_t n, double s) {
  OSRS_CHECK_GT(n, 0u);
  OSRS_CHECK_GT(s, 0.0);
  if (n == 1) return 0;
  // Devroye's rejection method for the Zipf distribution on {1..n}.
  const double one_minus_s = 1.0 - s;
  auto h_integral = [&](double x) {
    // Integral of x^-s; continuous envelope of the zipf pmf.
    if (std::abs(one_minus_s) < 1e-12) return std::log(x);
    return (std::pow(x, one_minus_s) - 1.0) / one_minus_s;
  };
  auto h_integral_inv = [&](double y) {
    if (std::abs(one_minus_s) < 1e-12) return std::exp(y);
    return std::pow(1.0 + y * one_minus_s, 1.0 / one_minus_s);
  };
  const double hi = h_integral(static_cast<double>(n) + 0.5);
  const double lo = h_integral(0.5);
  for (;;) {
    double u = lo + (hi - lo) * NextDouble();
    double x = h_integral_inv(u);
    uint64_t k = static_cast<uint64_t>(x + 0.5);
    if (k < 1) k = 1;
    if (k > n) k = n;
    double kd = static_cast<double>(k);
    // Envelope mass of k's unit cell; >= pmf(k) because x^-s is convex
    // decreasing (Jensen), so accept <= 1 and the sampler is exact.
    double cell = h_integral(kd + 0.5) - h_integral(kd - 0.5);
    double accept = std::pow(kd, -s) / cell;
    if (NextDouble() <= accept) return k - 1;
  }
}

size_t Rng::NextDiscrete(std::span<const double> weights) {
  OSRS_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    OSRS_CHECK_GE(w, 0.0);
    total += w;
  }
  OSRS_CHECK_GT(total, 0.0);
  double target = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (target < acc) return i;
  }
  return weights.size() - 1;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t count) {
  OSRS_CHECK_LE(count, n);
  std::vector<size_t> indices(n);
  std::iota(indices.begin(), indices.end(), size_t{0});
  // Partial Fisher-Yates: the first `count` positions end up uniform.
  for (size_t i = 0; i < count; ++i) {
    size_t j = i + static_cast<size_t>(NextUint64(n - i));
    std::swap(indices[i], indices[j]);
  }
  indices.resize(count);
  return indices;
}

Rng Rng::Fork() { return Rng(Next()); }

}  // namespace osrs
