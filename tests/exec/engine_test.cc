// Copyright 2026 The pasjoin Authors.
#include "exec/engine.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/engine_test_util.h"
#include "test_util.h"

namespace pasjoin::exec {
namespace {

using pasjoin::testing::BruteForcePairs;
using pasjoin::testing::MakeDataset;
using pasjoin::testing::MustRun;

/// A simple 1-D partitioner over [0, 10): partition = floor(x), with the
/// replicated side copied into the neighbor partitions its eps-ball touches.
AssignFn BandAssign(double eps, Side replicated) {
  return [eps, replicated](const Tuple& t, Side side) {
    PartitionList out;
    const int native = std::clamp(static_cast<int>(t.pt.x), 0, 9);
    out.push_back(native);
    if (side == replicated) {
      const int lo = std::clamp(static_cast<int>(t.pt.x - eps), 0, 9);
      const int hi = std::clamp(static_cast<int>(t.pt.x + eps), 0, 9);
      for (int p = lo; p <= hi; ++p) {
        if (p != native) out.push_back(p);
      }
    }
    return out;
  };
}

std::vector<Point> RandomPoints(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  for (size_t i = 0; i < n; ++i) {
    pts.push_back(Point{rng.NextUniform(0, 10), rng.NextUniform(0, 1)});
  }
  return pts;
}

EngineOptions BaseOptions() {
  EngineOptions options;
  options.eps = 0.25;
  options.workers = 4;
  options.num_splits = 8;
  options.physical_threads = 2;
  return options;
}

TEST(EngineTest, ProducesExactJoinResult) {
  const Dataset r = MakeDataset(RandomPoints(300, 1), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(300, 2), 1000, "S");
  EngineOptions options = BaseOptions();
  options.collect_results = true;
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  JoinRun run = MustRun(r, s, BandAssign(options.eps, Side::kR),
                                   owner, options);
  auto truth = BruteForcePairs(r, s, options.eps);
  EXPECT_EQ(run.metrics.results, truth.size());
  ASSERT_EQ(run.pairs.size(), truth.size());
  std::sort(run.pairs.begin(), run.pairs.end());
  size_t i = 0;
  for (const auto& [pair, count] : truth) {
    (void)count;
    EXPECT_EQ(run.pairs[i++], pair);
  }
}

TEST(EngineTest, LocalJoinVariantsAgree) {
  const Dataset r = MakeDataset(RandomPoints(250, 3), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(250, 4), 1000, "S");
  const EngineOptions options = BaseOptions();
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  const AssignFn assign = BandAssign(options.eps, Side::kS);
  const uint64_t nl =
      MustRun(r, s, assign, owner, options, NestedLoopLocalJoin())
          .metrics.results;
  const uint64_t ps =
      MustRun(r, s, assign, owner, options, PlaneSweepLocalJoin())
          .metrics.results;
  const uint64_t rt =
      MustRun(r, s, assign, owner, options, RTreeProbeLocalJoin())
          .metrics.results;
  const uint64_t rtr = MustRun(r, s, assign, owner, options,
                                          RTreeProbeLocalJoinIndexing(Side::kR))
                           .metrics.results;
  EXPECT_EQ(nl, ps);
  EXPECT_EQ(nl, rt);
  EXPECT_EQ(nl, rtr);
}

TEST(EngineTest, KernelSelectionMatrixAgrees) {
  // Every LocalJoinKernel selected through EngineOptions must produce the
  // same result multiset and report its own name in the metrics.
  const Dataset r = MakeDataset(RandomPoints(250, 13), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(250, 14), 1000, "S");
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  EngineOptions options = BaseOptions();
  options.collect_results = true;
  const AssignFn assign = BandAssign(options.eps, Side::kS);
  const auto truth = BruteForcePairs(r, s, options.eps);
  for (const spatial::LocalJoinKernel kernel :
       {spatial::LocalJoinKernel::kSweepSoA,
        spatial::LocalJoinKernel::kPlaneSweep,
        spatial::LocalJoinKernel::kNestedLoop,
        spatial::LocalJoinKernel::kRTree}) {
    options.local_kernel = kernel;
    JoinRun run = MustRun(r, s, assign, owner, options);
    EXPECT_EQ(run.metrics.local_kernel, spatial::LocalJoinKernelName(kernel));
    ASSERT_EQ(run.pairs.size(), truth.size())
        << spatial::LocalJoinKernelName(kernel);
    std::sort(run.pairs.begin(), run.pairs.end());
    size_t i = 0;
    for (const auto& [pair, count] : truth) {
      (void)count;
      EXPECT_EQ(run.pairs[i++], pair) << spatial::LocalJoinKernelName(kernel);
    }
    if (kernel == spatial::LocalJoinKernel::kSweepSoA) {
      // Only the SoA kernel reports the per-phase breakdown.
      EXPECT_GT(run.metrics.kernel_sort_seconds +
                    run.metrics.kernel_sweep_seconds +
                    run.metrics.kernel_emit_seconds,
                0.0);
    }
  }
}

TEST(EngineTest, ExplicitLocalJoinOverridesKernelSelection) {
  const Dataset r = MakeDataset(RandomPoints(120, 15), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(120, 16), 1000, "S");
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  EngineOptions options = BaseOptions();
  options.local_kernel = spatial::LocalJoinKernel::kSweepSoA;
  const AssignFn assign = BandAssign(options.eps, Side::kS);
  const JoinRun dispatched = MustRun(r, s, assign, owner, options);
  const JoinRun overridden = MustRun(r, s, assign, owner, options,
                                                NestedLoopLocalJoin());
  EXPECT_EQ(dispatched.metrics.results, overridden.metrics.results);
  EXPECT_EQ(overridden.metrics.local_kernel, "custom");
}

TEST(EngineTest, ReplicationCountsOnlyExtraCopies) {
  // 10 R points at x = 5.5 +- 0.1: native partition 5, no replica (eps-ball
  // inside); 10 at x = 5.05: replicated into partition 4.
  std::vector<Point> r_pts, s_pts;
  for (int i = 0; i < 10; ++i) r_pts.push_back(Point{5.5, 0.5});
  for (int i = 0; i < 10; ++i) r_pts.push_back(Point{5.05, 0.5});
  s_pts.push_back(Point{9.5, 0.5});
  const Dataset r = MakeDataset(r_pts, 0, "R");
  const Dataset s = MakeDataset(s_pts, 1000, "S");
  EngineOptions options = BaseOptions();
  const JoinRun run = MustRun(
      r, s, BandAssign(options.eps, Side::kR),
      [](PartitionId p) { return p % 4; }, options);
  EXPECT_EQ(run.metrics.replicated_r, 10u);
  EXPECT_EQ(run.metrics.replicated_s, 0u);
  EXPECT_EQ(run.metrics.shuffled_tuples, 31u);  // 20 + 10 replicas + 1
}

TEST(EngineTest, ShuffleBytesAccountForPayloads) {
  Dataset r = MakeDataset(RandomPoints(100, 5), 0, "R");
  Dataset s = MakeDataset(RandomPoints(100, 6), 1000, "S");
  EngineOptions options = BaseOptions();
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  const AssignFn assign = BandAssign(options.eps, Side::kR);
  const JoinRun bare = MustRun(r, s, assign, owner, options);

  r.SetPayloadBytes(100);
  s.SetPayloadBytes(100);
  const JoinRun heavy = MustRun(r, s, assign, owner, options);
  EXPECT_EQ(heavy.metrics.shuffled_tuples, bare.metrics.shuffled_tuples);
  EXPECT_EQ(heavy.metrics.shuffle_bytes,
            bare.metrics.shuffle_bytes + 100 * bare.metrics.shuffled_tuples);

  // carry_payloads=false restores the bare byte volume.
  options.carry_payloads = false;
  const JoinRun stripped = MustRun(r, s, assign, owner, options);
  EXPECT_EQ(stripped.metrics.shuffle_bytes, bare.metrics.shuffle_bytes);
}

TEST(EngineTest, RemoteBytesDependOnPlacement) {
  const Dataset r = MakeDataset(RandomPoints(200, 7), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(200, 8), 1000, "S");
  EngineOptions options = BaseOptions();
  options.workers = 1;  // single worker: nothing is remote
  options.num_splits = 4;
  const JoinRun local = MustRun(
      r, s, BandAssign(options.eps, Side::kR), [](PartitionId) { return 0; },
      options);
  EXPECT_EQ(local.metrics.shuffle_remote_bytes, 0u);
  EXPECT_GT(local.metrics.shuffle_bytes, 0u);

  options.workers = 4;
  const JoinRun spread = MustRun(
      r, s, BandAssign(options.eps, Side::kR),
      [](PartitionId p) { return (p + 1) % 4; }, options);
  EXPECT_GT(spread.metrics.shuffle_remote_bytes, 0u);
  EXPECT_LE(spread.metrics.shuffle_remote_bytes, spread.metrics.shuffle_bytes);
}

TEST(EngineTest, DeduplicateRemovesInflatedResults) {
  // Replicate BOTH sides: every pair within one partition of the border is
  // discovered twice; dedup must restore the exact count.
  const Dataset r = MakeDataset(RandomPoints(300, 9), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(300, 10), 1000, "S");
  EngineOptions options = BaseOptions();
  const AssignFn both = [](const Tuple& t, Side) {
    PartitionList out;
    const int native = std::clamp(static_cast<int>(t.pt.x), 0, 9);
    out.push_back(native);
    const int lo = std::clamp(static_cast<int>(t.pt.x - 0.25), 0, 9);
    const int hi = std::clamp(static_cast<int>(t.pt.x + 0.25), 0, 9);
    for (int p = lo; p <= hi; ++p) {
      if (p != native) out.push_back(p);
    }
    return out;
  };
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  const size_t truth = BruteForcePairs(r, s, options.eps).size();

  const JoinRun raw = MustRun(r, s, both, owner, options);
  EXPECT_GT(raw.metrics.results, truth);  // duplicates present

  options.deduplicate = true;
  options.collect_results = true;
  const JoinRun dedup = MustRun(r, s, both, owner, options);
  EXPECT_EQ(dedup.metrics.results, truth);
  EXPECT_EQ(dedup.pairs.size(), truth);
  EXPECT_GT(dedup.metrics.dedup_seconds, 0.0);
}

TEST(EngineTest, MetricsBookkeeping) {
  const Dataset r = MakeDataset(RandomPoints(100, 11), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(100, 12), 1000, "S");
  EngineOptions options = BaseOptions();
  const JoinRun run = MustRun(
      r, s, BandAssign(options.eps, Side::kR),
      [](PartitionId p) { return p % 4; }, options);
  const JobMetrics& m = run.metrics;
  EXPECT_EQ(m.workers, 4);
  EXPECT_EQ(m.worker_busy_join.size(), 4u);
  EXPECT_GT(m.partitions_joined, 0u);
  EXPECT_GE(m.candidates, m.results);
  EXPECT_GT(m.TotalSeconds(), 0.0);
  EXPECT_GT(m.wall_seconds, 0.0);
  // Imbalance is max/avg >= 1 whenever any join work was timed; 0 only if
  // the phase was too fast to measure.
  const double imbalance = m.JoinImbalance();
  EXPECT_TRUE(imbalance == 0.0 || imbalance >= 1.0 - 1e-9);
  EXPECT_NE(m.ToString().find("W=4"), std::string::npos);
}

}  // namespace
}  // namespace pasjoin::exec
