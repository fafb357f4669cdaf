// Copyright 2026 The pasjoin Authors.
//
// End-to-end tests of AdaptiveDistanceJoin (Algorithm 5).
#include "core/adaptive_join.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "agreements/agreement_graph.h"
#include "datagen/generators.h"
#include "exec/thread_pool.h"
#include "grid/grid.h"
#include "grid/stats.h"
#include "test_util.h"

namespace pasjoin::core {
namespace {

using pasjoin::testing::BruteForcePairs;

Dataset SmallGaussian(size_t n, uint64_t seed) {
  datagen::GaussianClustersOptions options;
  options.num_clusters = 8;
  options.sigma_min = 0.3;
  options.sigma_max = 1.5;
  options.mbr = Rect{0, 0, 40, 30};
  return datagen::GenerateGaussianClusters(n, seed, options);
}

AdaptiveJoinOptions BaseOptions() {
  AdaptiveJoinOptions options;
  options.eps = 0.5;
  options.workers = 4;
  options.physical_threads = 2;
  options.sample_rate = 1.0;  // exact statistics for determinism
  return options;
}

TEST(AdaptiveJoinTest, ValidatesOptions) {
  const Dataset r = SmallGaussian(100, 1);
  const Dataset s = SmallGaussian(100, 2);
  AdaptiveJoinOptions options = BaseOptions();
  options.eps = 0.0;
  EXPECT_FALSE(AdaptiveDistanceJoin(r, s, options).ok());
  // A sample rate outside (0, 1] is an error, not an abort.
  for (const double rate : {0.0, -0.1, 1.5, std::nan("")}) {
    options = BaseOptions();
    options.sample_rate = rate;
    EXPECT_EQ(AdaptiveDistanceJoin(r, s, options).status().code(),
              StatusCode::kInvalidArgument)
        << rate;
  }
  options = BaseOptions();
  const Dataset empty;
  EXPECT_FALSE(AdaptiveDistanceJoin(r, empty, options).ok());
  options.resolution_factor = 1.2;
  EXPECT_FALSE(AdaptiveDistanceJoin(r, s, options).ok());
  // Execution knobs are checked before placement needs them.
  for (const bool use_lpt : {true, false}) {
    options = BaseOptions();
    options.use_lpt = use_lpt;
    options.workers = 0;
    EXPECT_EQ(AdaptiveDistanceJoin(r, s, options).status().code(),
              StatusCode::kInvalidArgument);
  }
  // Thread counts outside [0, cap] are rejected before any thread starts,
  // the planner's included.
  for (const int threads : {exec::ThreadPool::kMaxThreads + 1,
                            std::numeric_limits<int>::max()}) {
    options = BaseOptions();
    options.physical_threads = threads;
    EXPECT_EQ(AdaptiveDistanceJoin(r, s, options).status().code(),
              StatusCode::kInvalidArgument)
        << threads;
    options = BaseOptions();
    options.planning.threads = threads;
    const Status st = AdaptiveDistanceJoin(r, s, options).status();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << threads;
    EXPECT_NE(st.message().find("planning threads"), std::string::npos)
        << st.ToString();
  }
  options = BaseOptions();
  options.planning.threads = -1;
  EXPECT_EQ(AdaptiveDistanceJoin(r, s, options).status().code(),
            StatusCode::kInvalidArgument);
  options = BaseOptions();
  options.workers = std::numeric_limits<int>::max();
  options.num_splits = std::numeric_limits<int>::max();
  EXPECT_EQ(AdaptiveDistanceJoin(r, s, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AdaptiveJoinTest, MatchesBruteForceForBothPolicies) {
  const Dataset r = SmallGaussian(2000, 3);
  const Dataset s = SmallGaussian(2000, 4);
  const auto truth = BruteForcePairs(r, s, 0.5);
  for (const auto policy :
       {agreements::Policy::kLPiB, agreements::Policy::kDiff}) {
    AdaptiveJoinOptions options = BaseOptions();
    options.policy = policy;
    options.collect_results = true;
    Result<exec::JoinRun> run = AdaptiveDistanceJoin(r, s, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run.value().metrics.results, truth.size())
        << agreements::PolicyName(policy);
    std::vector<ResultPair> got = run.value().pairs;
    std::sort(got.begin(), got.end());
    size_t i = 0;
    for (const auto& [pair, count] : truth) {
      (void)count;
      ASSERT_EQ(got[i++], pair);
    }
  }
}

TEST(AdaptiveJoinTest, SampledStatisticsStillGiveExactResults) {
  // Sampling only influences agreement decisions and LPT, never correctness.
  const Dataset r = SmallGaussian(3000, 5);
  const Dataset s = SmallGaussian(3000, 6);
  AdaptiveJoinOptions options = BaseOptions();
  options.sample_rate = 0.03;
  Result<exec::JoinRun> run = AdaptiveDistanceJoin(r, s, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().metrics.results, BruteForcePairs(r, s, 0.5).size());
}

TEST(AdaptiveJoinTest, NonDuplicateFreeVariantMatchesAfterDedup) {
  const Dataset r = SmallGaussian(1500, 7);
  const Dataset s = SmallGaussian(1500, 8);
  AdaptiveJoinOptions options = BaseOptions();
  options.duplicate_free = false;
  Result<exec::JoinRun> run = AdaptiveDistanceJoin(r, s, options);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().metrics.results, BruteForcePairs(r, s, 0.5).size());
  EXPECT_GT(run.value().metrics.dedup_seconds, 0.0);
}

TEST(AdaptiveJoinTest, CoarserGridsRemainCorrect) {
  const Dataset r = SmallGaussian(1200, 9);
  const Dataset s = SmallGaussian(1200, 10);
  const auto truth = BruteForcePairs(r, s, 0.5);
  for (const double factor : {2.0, 3.0, 4.0, 5.0}) {
    AdaptiveJoinOptions options = BaseOptions();
    options.resolution_factor = factor;
    Result<exec::JoinRun> run = AdaptiveDistanceJoin(r, s, options);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run.value().metrics.results, truth.size()) << factor;
  }
}

TEST(AdaptiveJoinTest, HashAndLptPlacementsAgreeOnResults) {
  const Dataset r = SmallGaussian(1500, 11);
  const Dataset s = SmallGaussian(1500, 12);
  AdaptiveJoinOptions options = BaseOptions();
  options.use_lpt = true;
  const uint64_t with_lpt =
      AdaptiveDistanceJoin(r, s, options).value().metrics.results;
  options.use_lpt = false;
  const uint64_t with_hash =
      AdaptiveDistanceJoin(r, s, options).value().metrics.results;
  EXPECT_EQ(with_lpt, with_hash);
}

TEST(AdaptiveJoinTest, ArtifactsDescribeConstruction) {
  const Dataset r = SmallGaussian(2000, 13);
  const Dataset s = SmallGaussian(2000, 14);
  AdaptiveJoinOptions options = BaseOptions();
  AdaptiveJoinArtifacts artifacts;
  Result<exec::JoinRun> run = AdaptiveDistanceJoin(r, s, options, &artifacts);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(artifacts.grid_nx, 1);
  EXPECT_GT(artifacts.grid_ny, 1);
  EXPECT_EQ(artifacts.sampled_r, 2000u);
  EXPECT_EQ(artifacts.sampled_s, 2000u);
  EXPECT_GT(artifacts.driver_seconds, 0.0);
  // Skewed clustered data with mixed densities should trigger some marking.
  EXPECT_GT(artifacts.marked_edges, 0u);
  EXPECT_GE(artifacts.locked_edges, artifacts.marked_edges);
  EXPECT_EQ(run.value().metrics.algorithm, "LPiB");
}

TEST(AdaptiveJoinTest, UntracedArtifactsCountTheGraphEdges) {
  // Untraced runs count marked/locked edges only for the artifacts; the
  // counts must still be those of the graph the driver built.
  const Dataset r = SmallGaussian(2000, 13);
  const Dataset s = SmallGaussian(2000, 14);
  const AdaptiveJoinOptions options = BaseOptions();
  ASSERT_EQ(options.trace, nullptr);
  AdaptiveJoinArtifacts artifacts;
  ASSERT_TRUE(AdaptiveDistanceJoin(r, s, options, &artifacts).ok());

  const grid::Grid grid =
      grid::Grid::Make(r.Mbr().Union(s.Mbr()), options.eps,
                       options.resolution_factor)
          .MoveValue();
  grid::GridStats stats(&grid);
  stats.AddSample(Side::kR, r, options.sample_rate, options.sample_seed);
  stats.AddSample(Side::kS, s, options.sample_rate, options.sample_seed + 1);
  agreements::AgreementGraph graph = agreements::AgreementGraph::Build(
      grid, stats, options.policy,
      agreements::AgreementFor(r.tuples.size() <= s.tuples.size()
                                   ? Side::kR
                                   : Side::kS));
  graph.RunDuplicateFreeMarking(options.marking_order);
  EXPECT_GT(graph.CountMarked(), 0u);
  EXPECT_EQ(artifacts.marked_edges, graph.CountMarked());
  EXPECT_EQ(artifacts.locked_edges, graph.CountLocked());
}

TEST(AdaptiveJoinTest, ReplicatesFarLessThanUniversalReplication) {
  // The headline claim on skewed data: adaptive replication produces fewer
  // replicas than max(UNI(R), UNI(S)) and usually far fewer.
  const Dataset r = SmallGaussian(4000, 15);
  Dataset s = SmallGaussian(4000, 16);
  AdaptiveJoinOptions options = BaseOptions();
  const uint64_t adaptive = AdaptiveDistanceJoin(r, s, options)
                                .value()
                                .metrics.ReplicatedTotal();
  // Universal replication baseline on the same engine: UniformR policy.
  options.policy = agreements::Policy::kUniformR;
  const uint64_t uni_r = AdaptiveDistanceJoin(r, s, options)
                             .value()
                             .metrics.ReplicatedTotal();
  options.policy = agreements::Policy::kUniformS;
  const uint64_t uni_s = AdaptiveDistanceJoin(r, s, options)
                             .value()
                             .metrics.ReplicatedTotal();
  EXPECT_LE(adaptive, std::min(uni_r, uni_s));
}

TEST(AdaptiveJoinTest, ExplicitMbrIsHonored) {
  const Dataset r = SmallGaussian(500, 17);
  const Dataset s = SmallGaussian(500, 18);
  AdaptiveJoinOptions options = BaseOptions();
  options.mbr = Rect{0, 0, 40, 30};
  AdaptiveJoinArtifacts artifacts;
  ASSERT_TRUE(AdaptiveDistanceJoin(r, s, options, &artifacts).ok());
  // 40 / (2 * 0.5) = 40 cells would give sides of exactly 2*eps; the grid
  // shrinks to 39 to keep them strictly larger.
  EXPECT_EQ(artifacts.grid_nx, 39);
}

}  // namespace
}  // namespace pasjoin::core
