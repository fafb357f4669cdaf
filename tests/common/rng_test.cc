// Copyright 2026 The pasjoin Authors.
#include "common/rng.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace pasjoin {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

// The stream every sample, plan and golden pin depends on, recorded from
// the out-of-line generator: a change to the arithmetic (or to inlining it)
// that moved a single draw would move them all.
TEST(RngTest, KnownAnswersPinTheStream) {
  struct Known {
    uint64_t seed;
    uint64_t first[8];
    /// NextBernoulli(0.03) outcomes of a fresh generator, '1' for a hit.
    const char* bernoulli;
  };
  const Known known[] = {
      {1,
       {0xb3f2af6d0fc710c5ULL, 0x853b559647364ceaULL, 0x92f89756082a4514ULL,
        0x642e1c7bc266a3a7ULL, 0xb27a48e29a233673ULL, 0x24c123126ffda722ULL,
        0x123004ef8df510e6ULL, 0x61954dcc47b1e89dULL},
       "0000000000000000000000000000001000000000010000000000000000000000"},
      {0x5a5a5a5a,
       {0xc688b688c7f67e96ULL, 0x0d8efc7300cf70c6ULL, 0xfa5d78408203f24fULL,
        0xe49f753f8ea895d0ULL, 0x4259cc35c0b8f7d1ULL, 0xd2677c6e54798e1eULL,
        0x48013e803297a8b8ULL, 0xdfb957a8d6b5eee1ULL},
       "0000000000000000000000000000000100000000000000000000000000000010"},
  };
  for (const Known& k : known) {
    Rng words(k.seed);
    for (const uint64_t expected : k.first) {
      EXPECT_EQ(words.NextUint64(), expected) << "seed " << k.seed;
    }
    Rng draws(k.seed);
    std::string outcomes;
    for (int i = 0; i < 64; ++i) {
      outcomes.push_back(draws.NextBernoulli(0.03) ? '1' : '0');
    }
    EXPECT_EQ(outcomes, k.bernoulli) << "seed " << k.seed;
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoundedIsInRangeAndRoughlyUniform) {
  Rng rng(11);
  std::vector<int> histogram(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const uint64_t v = rng.NextBounded(10);
    ASSERT_LT(v, 10u);
    ++histogram[static_cast<size_t>(v)];
  }
  for (int count : histogram) {
    EXPECT_NEAR(count, kDraws / 10, kDraws / 100);  // within 10% relative
  }
}

TEST(RngTest, NextUniformRespectsRange) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextUniform(-5.0, 3.0);
    EXPECT_GE(v, -5.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, GaussianMomentsAreStandard) {
  Rng rng(17);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(23);
  Rng forked = a.Fork();
  // The fork and the parent should not produce the same next values.
  EXPECT_NE(a.NextUint64(), forked.NextUint64());
}

TEST(SplitMix64Test, KnownProgressionIsDeterministic) {
  uint64_t s1 = 42, s2 = 42;
  EXPECT_EQ(SplitMix64(&s1), SplitMix64(&s2));
  EXPECT_EQ(s1, s2);
  EXPECT_NE(SplitMix64(&s1), SplitMix64(&s2) + 1);  // streams advanced equally
}

}  // namespace
}  // namespace pasjoin
