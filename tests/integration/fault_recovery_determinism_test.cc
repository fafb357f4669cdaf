// Copyright 2026 The pasjoin Authors.
//
// Fault-injection determinism suite (label: stress). For a grid of
// (algorithm policy, failure rate, seed) configurations - the acceptance
// matrix of the fault-tolerance subsystem - the recovered result of a run
// with injected task failures, one lost logical worker, and 4x stragglers
// must be *identical* (sorted pair-for-pair) to the fault-free run. This is
// the C++ equivalent of the Spark guarantee the paper's experiments assume:
// recovery from lineage is exact, and speculative execution never
// duplicates results (docs/FAULT_TOLERANCE.md).
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "agreements/agreement_graph.h"
#include "baselines/pbsm.h"
#include "common/tuple.h"
#include "core/adaptive_join.h"
#include "datagen/generators.h"
#include "exec/engine.h"
#include "exec/fault_injector.h"

namespace pasjoin {
namespace {

Dataset DataR(uint64_t seed) {
  datagen::GaussianClustersOptions options;
  options.num_clusters = 6;
  options.sigma_min = 0.3;
  options.sigma_max = 1.2;
  options.mbr = Rect{0, 0, 30, 20};
  return datagen::GenerateGaussianClusters(2500, seed, options);
}

Dataset DataS(uint64_t seed) {
  return datagen::GenerateUniform(2500, seed, Rect{0, 0, 30, 20});
}

/// The injected chaos of the acceptance matrix: failure probability `p` in
/// every phase, worker 1 lost in the join phase, and 4x stragglers backed
/// by speculative execution.
exec::FaultOptions Chaos(double p, uint64_t seed) {
  exec::FaultOptions fault;
  fault.enabled = true;
  fault.seed = seed;
  fault.map_failure_p = p;
  fault.regroup_failure_p = p;
  fault.join_failure_p = p;
  fault.dedup_failure_p = p;
  fault.max_retries = 50;
  fault.backoff_base_ms = 0.05;
  fault.lost_worker = 1;
  fault.lost_worker_phase = exec::Phase::kJoin;
  fault.straggler_p = 0.1;
  fault.straggler_delay_ms = 20.0;
  return fault;
}

std::vector<ResultPair> Sorted(std::vector<ResultPair> pairs) {
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

class FaultRecoveryDeterminismTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FaultRecoveryDeterminismTest, AdaptiveLpibRecoversExactly) {
  const uint64_t seed = GetParam();
  const Dataset r = DataR(seed);
  const Dataset s = DataS(seed + 1000);
  core::AdaptiveJoinOptions options;
  options.eps = 0.4;
  options.policy = agreements::Policy::kLPiB;
  options.workers = 4;
  options.collect_results = true;

  Result<exec::JoinRun> clean = core::AdaptiveDistanceJoin(r, s, options);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  for (const double p : {0.05, 0.2}) {
    options.fault = Chaos(p, seed);
    Result<exec::JoinRun> faulty = core::AdaptiveDistanceJoin(r, s, options);
    ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
    EXPECT_EQ(faulty.value().metrics.results, clean.value().metrics.results)
        << "p=" << p;
    EXPECT_EQ(Sorted(faulty.value().pairs), Sorted(clean.value().pairs))
        << "p=" << p;
    EXPECT_GT(faulty.value().metrics.tasks_failed, 0u) << "p=" << p;
  }
}

TEST_P(FaultRecoveryDeterminismTest, AdaptiveDiffRecoversExactly) {
  const uint64_t seed = GetParam();
  const Dataset r = DataR(seed + 7);
  const Dataset s = DataS(seed + 1007);
  core::AdaptiveJoinOptions options;
  options.eps = 0.4;
  options.policy = agreements::Policy::kDiff;
  options.workers = 4;
  options.collect_results = true;

  Result<exec::JoinRun> clean = core::AdaptiveDistanceJoin(r, s, options);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  options.fault = Chaos(0.2, seed);
  Result<exec::JoinRun> faulty = core::AdaptiveDistanceJoin(r, s, options);
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
  EXPECT_EQ(faulty.value().metrics.results, clean.value().metrics.results);
  EXPECT_EQ(Sorted(faulty.value().pairs), Sorted(clean.value().pairs));
}

TEST_P(FaultRecoveryDeterminismTest, AdaptiveNonDuplicateFreeRecoversExactly) {
  // The duplicate-producing variant exercises the dedup phases under faults.
  const uint64_t seed = GetParam();
  const Dataset r = DataR(seed + 17);
  const Dataset s = DataS(seed + 1017);
  core::AdaptiveJoinOptions options;
  options.eps = 0.4;
  options.policy = agreements::Policy::kLPiB;
  options.workers = 4;
  options.duplicate_free = false;  // enables the parallel distinct step
  options.collect_results = true;

  Result<exec::JoinRun> clean = core::AdaptiveDistanceJoin(r, s, options);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  options.fault = Chaos(0.2, seed);
  Result<exec::JoinRun> faulty = core::AdaptiveDistanceJoin(r, s, options);
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
  EXPECT_EQ(faulty.value().metrics.results, clean.value().metrics.results);
  EXPECT_EQ(Sorted(faulty.value().pairs), Sorted(clean.value().pairs));
}

TEST_P(FaultRecoveryDeterminismTest, PbsmRecoversExactly) {
  const uint64_t seed = GetParam();
  const Dataset r = DataR(seed + 27);
  const Dataset s = DataS(seed + 1027);
  baselines::PbsmOptions options;
  options.eps = 0.4;
  options.workers = 4;
  options.collect_results = true;

  for (const baselines::PbsmVariant variant :
       {baselines::PbsmVariant::kUniR, baselines::PbsmVariant::kEpsGrid}) {
    options.fault = exec::FaultOptions();
    Result<exec::JoinRun> clean =
        baselines::PbsmDistanceJoin(r, s, variant, options);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();

    options.fault = Chaos(0.2, seed);
    Result<exec::JoinRun> faulty =
        baselines::PbsmDistanceJoin(r, s, variant, options);
    ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
    EXPECT_EQ(faulty.value().metrics.results, clean.value().metrics.results)
        << baselines::PbsmVariantName(variant);
    EXPECT_EQ(Sorted(faulty.value().pairs), Sorted(clean.value().pairs))
        << baselines::PbsmVariantName(variant);
  }
}

TEST_P(FaultRecoveryDeterminismTest, RepeatedFaultyRunsAreIdentical) {
  // Same seed, same chaos: not only does recovery reproduce the fault-free
  // result, the fault pattern itself replays identically.
  const uint64_t seed = GetParam();
  const Dataset r = DataR(seed + 37);
  const Dataset s = DataS(seed + 1037);
  core::AdaptiveJoinOptions options;
  options.eps = 0.4;
  options.workers = 4;
  options.collect_results = true;
  options.fault = Chaos(0.2, seed);

  Result<exec::JoinRun> a = core::AdaptiveDistanceJoin(r, s, options);
  Result<exec::JoinRun> b = core::AdaptiveDistanceJoin(r, s, options);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a.value().metrics.tasks_failed, b.value().metrics.tasks_failed);
  EXPECT_EQ(Sorted(a.value().pairs), Sorted(b.value().pairs));
}

std::string SeedName(const ::testing::TestParamInfo<uint64_t>& param_info) {
  return "seed" + std::to_string(param_info.param);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultRecoveryDeterminismTest,
                         ::testing::Values(1u, 2u, 3u), SeedName);

}  // namespace
}  // namespace pasjoin
