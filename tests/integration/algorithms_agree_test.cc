// Copyright 2026 The pasjoin Authors.
//
// Cross-algorithm integration tests: every join implementation in the
// repository (LPiB, DIFF, UNI(R), UNI(S), eps-grid, Sedona-like, and the
// non-duplicate-free + distinct variant) must report the exact same result
// count as the brute-force oracle, across eps values and data set shapes.
// This is the Definition 3.2/3.3 contract at system level.
#include <cstdio>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "baselines/pbsm.h"
#include "baselines/sedona_like.h"
#include "core/adaptive_join.h"
#include "datagen/generators.h"
#include "test_util.h"

namespace pasjoin {
namespace {

struct Workload {
  std::string name;
  Dataset r;
  Dataset s;
};

Workload MakeWorkload(const std::string& kind, size_t n) {
  const Rect box{0, 0, 40, 30};
  Workload w;
  w.name = kind;
  if (kind == "gaussian_x_gaussian") {
    datagen::GaussianClustersOptions options;
    options.num_clusters = 10;
    options.sigma_min = 0.3;
    options.sigma_max = 2.0;
    options.mbr = box;
    w.r = datagen::GenerateGaussianClusters(n, 21, options);
    w.s = datagen::GenerateGaussianClusters(n, 22, options);
  } else if (kind == "uniform_x_gaussian") {
    datagen::GaussianClustersOptions options;
    options.num_clusters = 5;
    options.sigma_min = 0.2;
    options.sigma_max = 1.0;
    options.mbr = box;
    w.r = datagen::GenerateUniform(n, 23, box);
    w.s = datagen::GenerateGaussianClusters(n, 24, options);
  } else {  // "uniform_x_uniform"
    w.r = datagen::GenerateUniform(n, 25, box);
    w.s = datagen::GenerateUniform(n, 26, box);
  }
  return w;
}

class AlgorithmsAgreeTest
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(AlgorithmsAgreeTest, AllAlgorithmsReportTheOracleCount) {
  const auto& [kind, eps] = GetParam();
  const Workload w = MakeWorkload(kind, 1200);
  const size_t truth = pasjoin::testing::BruteForcePairs(w.r, w.s, eps).size();

  std::map<std::string, uint64_t> results;

  for (const auto policy :
       {agreements::Policy::kLPiB, agreements::Policy::kDiff}) {
    core::AdaptiveJoinOptions options;
    options.eps = eps;
    options.workers = 4;
    options.physical_threads = 2;
    options.sample_rate = 0.25;
    options.policy = policy;
    Result<exec::JoinRun> run = core::AdaptiveDistanceJoin(w.r, w.s, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    results[agreements::PolicyName(policy)] = run.value().metrics.results;
  }
  {
    core::AdaptiveJoinOptions options;
    options.eps = eps;
    options.workers = 4;
    options.physical_threads = 2;
    options.sample_rate = 0.25;
    options.duplicate_free = false;
    Result<exec::JoinRun> run = core::AdaptiveDistanceJoin(w.r, w.s, options);
    ASSERT_TRUE(run.ok());
    results["LPiB+distinct"] = run.value().metrics.results;
  }
  for (const auto variant : {baselines::PbsmVariant::kUniR,
                             baselines::PbsmVariant::kUniS,
                             baselines::PbsmVariant::kEpsGrid}) {
    baselines::PbsmOptions options;
    options.eps = eps;
    options.workers = 4;
    options.physical_threads = 2;
    Result<exec::JoinRun> run =
        baselines::PbsmDistanceJoin(w.r, w.s, variant, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    results[baselines::PbsmVariantName(variant)] = run.value().metrics.results;
  }
  {
    baselines::SedonaOptions options;
    options.eps = eps;
    options.workers = 4;
    options.physical_threads = 2;
    options.sample_rate = 0.2;
    Result<exec::JoinRun> run =
        baselines::SedonaLikeDistanceJoin(w.r, w.s, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    results["Sedona"] = run.value().metrics.results;
  }

  for (const auto& [algorithm, count] : results) {
    EXPECT_EQ(count, truth) << algorithm << " on " << kind << " eps " << eps;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadSweep, AlgorithmsAgreeTest,
    ::testing::Combine(::testing::Values("gaussian_x_gaussian",
                                         "uniform_x_gaussian",
                                         "uniform_x_uniform"),
                       ::testing::Values(0.2, 0.5, 0.9)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, double>>& param_info) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s_eps%d",
                    std::get<0>(param_info.param).c_str(),
                    static_cast<int>(std::get<1>(param_info.param) * 10));
      return std::string(buf);
    });

}  // namespace
}  // namespace pasjoin
