// Copyright 2026 The pasjoin Authors.
#include "baselines/pbsm.h"

#include <gtest/gtest.h>

#include "datagen/generators.h"
#include "test_util.h"

namespace pasjoin::baselines {
namespace {

using pasjoin::testing::BruteForcePairs;

Dataset SmallGaussian(size_t n, uint64_t seed) {
  datagen::GaussianClustersOptions options;
  options.num_clusters = 6;
  options.sigma_min = 0.3;
  options.sigma_max = 1.2;
  options.mbr = Rect{0, 0, 30, 30};
  return datagen::GenerateGaussianClusters(n, seed, options);
}

PbsmOptions BaseOptions() {
  PbsmOptions options;
  options.eps = 0.5;
  options.workers = 4;
  options.physical_threads = 2;
  return options;
}

TEST(PbsmTest, VariantNames) {
  EXPECT_STREQ(PbsmVariantName(PbsmVariant::kUniR), "UNI(R)");
  EXPECT_STREQ(PbsmVariantName(PbsmVariant::kUniS), "UNI(S)");
  EXPECT_STREQ(PbsmVariantName(PbsmVariant::kEpsGrid), "eps-grid");
}

TEST(PbsmTest, ValidatesOptions) {
  const Dataset r = SmallGaussian(50, 1);
  PbsmOptions options = BaseOptions();
  options.eps = -1;
  EXPECT_FALSE(PbsmDistanceJoin(r, r, PbsmVariant::kUniR, options).ok());
  const Dataset empty;
  EXPECT_FALSE(
      PbsmDistanceJoin(r, empty, PbsmVariant::kUniR, BaseOptions()).ok());
}

TEST(PbsmTest, AllVariantsMatchBruteForce) {
  const Dataset r = SmallGaussian(1500, 2);
  const Dataset s = SmallGaussian(1800, 3);
  const size_t truth = BruteForcePairs(r, s, 0.5).size();
  for (const auto variant :
       {PbsmVariant::kUniR, PbsmVariant::kUniS, PbsmVariant::kEpsGrid}) {
    Result<exec::JoinRun> run =
        PbsmDistanceJoin(r, s, variant, BaseOptions());
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run.value().metrics.results, truth)
        << PbsmVariantName(variant);
  }
}

TEST(PbsmTest, OnlyTheChosenSideIsReplicated) {
  const Dataset r = SmallGaussian(1000, 4);
  const Dataset s = SmallGaussian(1000, 5);
  const exec::JobMetrics uni_r =
      PbsmDistanceJoin(r, s, PbsmVariant::kUniR, BaseOptions())
          .value()
          .metrics;
  EXPECT_GT(uni_r.replicated_r, 0u);
  EXPECT_EQ(uni_r.replicated_s, 0u);
  const exec::JobMetrics uni_s =
      PbsmDistanceJoin(r, s, PbsmVariant::kUniS, BaseOptions())
          .value()
          .metrics;
  EXPECT_EQ(uni_s.replicated_r, 0u);
  EXPECT_GT(uni_s.replicated_s, 0u);
}

TEST(PbsmTest, EpsGridReplicatesTheSmallerSet) {
  const Dataset small = SmallGaussian(500, 6);
  const Dataset large = SmallGaussian(2000, 7);
  const exec::JobMetrics m =
      PbsmDistanceJoin(small, large, PbsmVariant::kEpsGrid, BaseOptions())
          .value()
          .metrics;
  EXPECT_GT(m.replicated_r, 0u);  // R is the smaller input here
  EXPECT_EQ(m.replicated_s, 0u);
  const exec::JobMetrics m2 =
      PbsmDistanceJoin(large, small, PbsmVariant::kEpsGrid, BaseOptions())
          .value()
          .metrics;
  EXPECT_EQ(m2.replicated_r, 0u);
  EXPECT_GT(m2.replicated_s, 0u);
}

TEST(PbsmTest, EpsGridReplicatesMoreThanTwoEpsGrid) {
  // Finer cells mean more boundary: the eps-grid variant must replicate more
  // objects than UNI on the 2-eps grid (the paper reports ~7x).
  const Dataset r = SmallGaussian(2000, 8);
  const Dataset s = SmallGaussian(2500, 9);
  const uint64_t eps_grid =
      PbsmDistanceJoin(r, s, PbsmVariant::kEpsGrid, BaseOptions())
          .value()
          .metrics.ReplicatedTotal();
  const uint64_t uni =
      PbsmDistanceJoin(r, s, PbsmVariant::kUniR, BaseOptions())
          .value()
          .metrics.ReplicatedTotal();
  EXPECT_GT(eps_grid, uni);
}

TEST(PbsmTest, ResolutionFactorSweepStaysCorrect) {
  const Dataset r = SmallGaussian(800, 12);
  const Dataset s = SmallGaussian(800, 13);
  const size_t truth = BruteForcePairs(r, s, 0.5).size();
  for (const double factor : {2.0, 3.0, 5.0}) {
    PbsmOptions options = BaseOptions();
    options.resolution_factor = factor;
    EXPECT_EQ(PbsmDistanceJoin(r, s, PbsmVariant::kUniS, options)
                  .value()
                  .metrics.results,
              truth)
        << factor;
  }
}

}  // namespace
}  // namespace pasjoin::baselines
