// Copyright 2026 The pasjoin Authors.
//
// Determinism: every algorithm's *logical* outputs (result counts,
// replication counts, shuffled bytes) must be bit-identical across runs and
// independent of physical thread count - only timings may vary.
#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "baselines/pbsm.h"
#include "baselines/sedona_like.h"
#include "core/adaptive_join.h"
#include "datagen/generators.h"
#include "exec/engine_test_util.h"

namespace pasjoin {
namespace {

Dataset Data(uint64_t seed) {
  datagen::GaussianClustersOptions options;
  options.num_clusters = 8;
  options.sigma_min = 0.3;
  options.sigma_max = 1.4;
  options.mbr = Rect{0, 0, 40, 30};
  return datagen::GenerateGaussianClusters(4000, seed, options);
}

using pasjoin::testing::ExpectSameCounters;
constexpr auto kResult = exec::CounterKind::kResult;

TEST(DeterminismTest, AdaptiveJoinIsDeterministicAcrossRunsAndThreads) {
  const Dataset r = Data(1);
  const Dataset s = Data(2);
  core::AdaptiveJoinOptions options;
  options.eps = 0.5;
  options.workers = 6;
  options.sample_rate = 0.2;
  options.physical_threads = 1;
  const exec::JobMetrics first =
      core::AdaptiveDistanceJoin(r, s, options).value().metrics;
  for (const int physical : {1, 2, 4}) {
    options.physical_threads = physical;
    ExpectSameCounters(
        first, core::AdaptiveDistanceJoin(r, s, options).value().metrics,
        {kResult}, "physical threads " + std::to_string(physical));
  }
}

TEST(DeterminismTest, CollectedPairsAreASetInvariant) {
  const Dataset r = Data(3);
  const Dataset s = Data(4);
  core::AdaptiveJoinOptions options;
  options.eps = 0.5;
  options.workers = 4;
  options.collect_results = true;
  std::vector<ResultPair> a =
      core::AdaptiveDistanceJoin(r, s, options).value().pairs;
  options.physical_threads = 3;
  std::vector<ResultPair> b =
      core::AdaptiveDistanceJoin(r, s, options).value().pairs;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(DeterminismTest, BaselinesAreDeterministic) {
  const Dataset r = Data(5);
  const Dataset s = Data(6);
  {
    baselines::PbsmOptions options;
    options.eps = 0.5;
    options.workers = 6;
    ExpectSameCounters(
        baselines::PbsmDistanceJoin(r, s, baselines::PbsmVariant::kUniR, options)
            .value()
            .metrics,
        baselines::PbsmDistanceJoin(r, s, baselines::PbsmVariant::kUniR, options)
            .value()
            .metrics,
        {kResult});
  }
  {
    baselines::SedonaOptions options;
    options.eps = 0.5;
    options.workers = 6;
    options.sample_rate = 0.2;
    ExpectSameCounters(
        baselines::SedonaLikeDistanceJoin(r, s, options).value().metrics,
        baselines::SedonaLikeDistanceJoin(r, s, options).value().metrics,
        {kResult});
  }
}

}  // namespace
}  // namespace pasjoin
