// Copyright 2026 The pasjoin Authors.
#include "core/self_join.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "datagen/generators.h"

namespace pasjoin::core {
namespace {

Dataset SmallGaussian(size_t n, uint64_t seed) {
  datagen::GaussianClustersOptions options;
  options.num_clusters = 6;
  options.sigma_min = 0.3;
  options.sigma_max = 1.2;
  options.mbr = Rect{0, 0, 30, 30};
  return datagen::GenerateGaussianClusters(n, seed, options);
}

/// Oracle: unordered pairs with a.id < b.id.
std::set<ResultPair> Oracle(const Dataset& data, double eps) {
  std::set<ResultPair> out;
  const double eps2 = eps * eps;
  for (size_t i = 0; i < data.tuples.size(); ++i) {
    for (size_t j = i + 1; j < data.tuples.size(); ++j) {
      const Tuple& a = data.tuples[i];
      const Tuple& b = data.tuples[j];
      if (SquaredDistance(a.pt, b.pt) <= eps2) {
        out.insert(ResultPair{std::min(a.id, b.id), std::max(a.id, b.id)});
      }
    }
  }
  return out;
}

SelfJoinOptions BaseOptions(double eps) {
  SelfJoinOptions options;
  options.eps = eps;
  options.workers = 4;
  options.physical_threads = 2;
  options.collect_results = true;
  return options;
}

TEST(SelfJoinTest, ValidatesOptions) {
  const Dataset data = SmallGaussian(50, 1);
  SelfJoinOptions options = BaseOptions(0.0);
  EXPECT_FALSE(SelfDistanceJoin(data, options).ok());
  const Dataset empty;
  EXPECT_FALSE(SelfDistanceJoin(empty, BaseOptions(0.5)).ok());
}

TEST(SelfJoinTest, MatchesOracleExactlyOnce) {
  const Dataset data = SmallGaussian(1500, 2);
  for (const double eps : {0.2, 0.5, 1.0}) {
    const std::set<ResultPair> truth = Oracle(data, eps);
    Result<exec::JoinRun> run = SelfDistanceJoin(data, BaseOptions(eps));
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run.value().metrics.results, truth.size()) << "eps " << eps;
    std::vector<ResultPair> pairs = run.value().pairs;
    std::sort(pairs.begin(), pairs.end());
    ASSERT_TRUE(std::adjacent_find(pairs.begin(), pairs.end()) == pairs.end());
    for (const ResultPair& p : pairs) {
      EXPECT_LT(p.r_id, p.s_id);
      EXPECT_TRUE(truth.count(p));
    }
  }
}

TEST(SelfJoinTest, NoSelfPairsEvenWithDuplicateCoordinates) {
  // Many points at the same location: C(n,2) pairs, never (a, a).
  Dataset data;
  data.name = "stack";
  for (int i = 0; i < 20; ++i) {
    data.tuples.push_back(Tuple{i, Point{5.0, 5.0}, ""});
  }
  data.tuples.push_back(Tuple{100, Point{20.0, 20.0}, ""});
  Result<exec::JoinRun> run = SelfDistanceJoin(data, BaseOptions(0.5));
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().metrics.results, 190u);  // C(20,2)
  for (const ResultPair& p : run.value().pairs) EXPECT_NE(p.r_id, p.s_id);
}

TEST(SelfJoinTest, ResolutionSweepStaysCorrect) {
  const Dataset data = SmallGaussian(1000, 3);
  const double eps = 0.5;
  const size_t truth = Oracle(data, eps).size();
  for (const double factor : {1.0, 2.0, 4.0}) {
    SelfJoinOptions options = BaseOptions(eps);
    options.collect_results = false;
    options.resolution_factor = factor;
    Result<exec::JoinRun> run = SelfDistanceJoin(data, options);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run.value().metrics.results, truth) << factor;
  }
}

}  // namespace
}  // namespace pasjoin::core
