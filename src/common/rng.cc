// Copyright 2026 The pasjoin Authors.
#include "common/rng.h"

#include <cmath>

#include "common/macros.h"

namespace pasjoin {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::NextBounded(uint64_t bound) {
  PASJOIN_DCHECK(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::NextUniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  const double u2 = NextDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  const double two_pi = 6.283185307179586476925286766559;
  cached_gaussian_ = mag * std::sin(two_pi * u2);
  has_cached_gaussian_ = true;
  return mag * std::cos(two_pi * u2);
}

Rng Rng::Fork() { return Rng(NextUint64()); }

}  // namespace pasjoin
