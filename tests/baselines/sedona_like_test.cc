// Copyright 2026 The pasjoin Authors.
#include "baselines/sedona_like.h"

#include <cmath>
#include <limits>

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

SedonaOptions BaseOptions() {
  SedonaOptions options;
  options.eps = 0.5;
  options.workers = 4;
  options.physical_threads = 2;
  options.sample_rate = 0.2;
  return options;
}

TEST(SedonaLikeTest, ValidatesOptions) {
  const Dataset r = SmallGaussian(50, 1);
  SedonaOptions options = BaseOptions();
  options.eps = 0;
  EXPECT_FALSE(SedonaLikeDistanceJoin(r, r, options).ok());
  // A sample rate outside (0, 1] is an error, not an abort.
  for (const double rate : {0.0, -0.1, 1.5, std::nan("")}) {
    options = BaseOptions();
    options.sample_rate = rate;
    EXPECT_EQ(SedonaLikeDistanceJoin(r, r, options).status().code(),
              StatusCode::kInvalidArgument)
        << rate;
  }
  const Dataset empty;
  EXPECT_FALSE(SedonaLikeDistanceJoin(empty, r, BaseOptions()).ok());
  // The leaf capacity divides by 4 * workers: a worker count that would
  // overflow it is rejected at admission.
  options = BaseOptions();
  options.workers = std::numeric_limits<int>::max();
  EXPECT_EQ(SedonaLikeDistanceJoin(r, r, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SedonaLikeTest, MatchesBruteForce) {
  const Dataset r = SmallGaussian(1500, 2);
  const Dataset s = SmallGaussian(2000, 3);
  Result<exec::JoinRun> run = SedonaLikeDistanceJoin(r, s, BaseOptions());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().metrics.results, BruteForcePairs(r, s, 0.5).size());
  EXPECT_EQ(run.value().metrics.algorithm, "Sedona");
}

TEST(SedonaLikeTest, CollectedPairsAreInCanonicalOrder) {
  const Dataset r = SmallGaussian(400, 4);
  const Dataset s = SmallGaussian(400, 5);
  SedonaOptions options = BaseOptions();
  options.collect_results = true;
  Result<exec::JoinRun> run = SedonaLikeDistanceJoin(r, s, options);
  ASSERT_TRUE(run.ok());
  const auto truth = BruteForcePairs(r, s, 0.5);
  ASSERT_EQ(run.value().pairs.size(), truth.size());
  for (const ResultPair& p : run.value().pairs) {
    EXPECT_TRUE(truth.count(p)) << p.r_id << "," << p.s_id;
  }
}

TEST(SedonaLikeTest, ReplicatesOnlyTheSmallerSet) {
  // Uniform data guarantees points near every partition border.
  const Dataset small = pasjoin::testing::MakeDataset(
      [] {
        std::vector<Point> pts;
        Rng rng(6);
        for (int i = 0; i < 600; ++i) {
          pts.push_back(Point{rng.NextUniform(0, 30), rng.NextUniform(0, 30)});
        }
        return pts;
      }(),
      0, "small");
  const Dataset large = SmallGaussian(2400, 7);
  const exec::JobMetrics m =
      SedonaLikeDistanceJoin(small, large, BaseOptions()).value().metrics;
  EXPECT_GT(m.replicated_r, 0u);
  EXPECT_EQ(m.replicated_s, 0u);
  const exec::JobMetrics m2 =
      SedonaLikeDistanceJoin(large, small, BaseOptions()).value().metrics;
  EXPECT_EQ(m2.replicated_r, 0u);
  EXPECT_GT(m2.replicated_s, 0u);
}

TEST(SedonaLikeTest, CoarsePartitioningReducesReplication) {
  // Fewer, larger partitions -> fewer boundary crossings (the behaviour the
  // paper observes for Sedona's QuadTree partitions in Figure 10). The leaf
  // count tracks the worker count, so fewer workers partition coarser.
  const Dataset r = SmallGaussian(2000, 8);
  const Dataset s = SmallGaussian(2000, 9);
  SedonaOptions fine = BaseOptions();
  fine.workers = 32;
  SedonaOptions coarse = BaseOptions();
  coarse.workers = 1;
  const uint64_t fine_repl =
      SedonaLikeDistanceJoin(r, s, fine).value().metrics.ReplicatedTotal();
  const uint64_t coarse_repl =
      SedonaLikeDistanceJoin(r, s, coarse).value().metrics.ReplicatedTotal();
  EXPECT_LT(coarse_repl, fine_repl);
}

TEST(SedonaLikeTest, WorksWithTinySample) {
  const Dataset r = SmallGaussian(1000, 10);
  const Dataset s = SmallGaussian(1000, 11);
  SedonaOptions options = BaseOptions();
  options.sample_rate = 0.01;
  Result<exec::JoinRun> run = SedonaLikeDistanceJoin(r, s, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().metrics.results, BruteForcePairs(r, s, 0.5).size());
}

TEST(SedonaLikeTest, GoldenCountersOnASeededInput) {
  // Golden values, with the leaf capacity derived from the worker count.
  // The candidate count depends on which side the R-tree indexes, so it
  // pins the engine's choice to Sedona's: both orientations index the same
  // (larger) data set.
  Dataset r = SmallGaussian(1500, 21);
  const Dataset s = SmallGaussian(2000, 22);
  r.SetPayloadBytes(16);
  for (const bool swapped : {false, true}) {
    Result<exec::JoinRun> run =
        swapped ? SedonaLikeDistanceJoin(s, r, BaseOptions())
                : SedonaLikeDistanceJoin(r, s, BaseOptions());
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const exec::JobMetrics& m = run.value().metrics;
    EXPECT_EQ(m.local_kernel, "rtree");
    EXPECT_EQ(m.results, 158u) << swapped;
    EXPECT_EQ(m.candidates, 1323u) << swapped;
    EXPECT_EQ(m.replicated_r, swapped ? 0u : 3312u);
    EXPECT_EQ(m.replicated_s, swapped ? 3312u : 0u);
    EXPECT_EQ(m.shuffle_bytes, 240480u) << swapped;
  }
}

}  // namespace
}  // namespace pasjoin::baselines
