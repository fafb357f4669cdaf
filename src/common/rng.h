// Copyright 2026 The pasjoin Authors.
//
// Deterministic pseudo-random number generation. All data generators and
// property tests draw from Rng so that every experiment and test is exactly
// reproducible from its seed.
#ifndef PASJOIN_COMMON_RNG_H_
#define PASJOIN_COMMON_RNG_H_

#include <cstdint>

namespace pasjoin {

/// SplitMix64 stream used for seeding; a single 64-bit step.
uint64_t SplitMix64(uint64_t* state);

/// Small, fast, high-quality PRNG (xoshiro256**). Not cryptographic.
///
/// The generator is value-semantic and cheap to copy, so parallel workers can
/// each take an independently seeded copy (see Fork()).
class Rng {
 public:
  /// Seeds the full 256-bit state from a 64-bit seed via SplitMix64.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next 64 uniformly random bits. Inline: samplers draw once per tuple.
  uint64_t NextUint64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0. Unbiased.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double NextDouble() {
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double NextUniform(double lo, double hi);

  /// Standard normal (mean 0, stddev 1) via Box-Muller.
  double NextGaussian();

  /// Bernoulli trial with success probability `p`.
  bool NextBernoulli(double p) { return NextDouble() < p; }

  /// Derives an independent generator (e.g. one per worker or per cluster).
  Rng Fork();

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace pasjoin

#endif  // PASJOIN_COMMON_RNG_H_
