// Copyright 2026 The pasjoin Authors.
//
// Unit tests of the deterministic fault source: validation of FaultOptions,
// determinism and scheduling-independence of injection decisions, targeted
// failures, and the probability edge cases.
#include "exec/fault_injector.h"

#include <limits>

#include <gtest/gtest.h>

#include "common/status.h"

namespace pasjoin::exec {
namespace {

TEST(PhaseNameTest, AllPhasesHaveNames) {
  EXPECT_STREQ(PhaseName(Phase::kMap), "map");
  EXPECT_STREQ(PhaseName(Phase::kRegroup), "regroup");
  EXPECT_STREQ(PhaseName(Phase::kJoin), "join");
  EXPECT_STREQ(PhaseName(Phase::kDedupScatter), "dedup-scatter");
  EXPECT_STREQ(PhaseName(Phase::kDedupMerge), "dedup-merge");
}

TEST(FaultOptionsTest, DefaultValidates) {
  const FaultOptions options;
  EXPECT_TRUE(options.Validate(/*workers=*/4).ok());
}

TEST(FaultOptionsTest, RejectsBadProbabilities) {
  for (const double bad : {-0.1, 1.5}) {
    FaultOptions options;
    options.map_failure_p = bad;
    EXPECT_EQ(options.Validate(4).code(), StatusCode::kInvalidArgument);
    options = FaultOptions();
    options.regroup_failure_p = bad;
    EXPECT_EQ(options.Validate(4).code(), StatusCode::kInvalidArgument);
    options = FaultOptions();
    options.join_failure_p = bad;
    EXPECT_EQ(options.Validate(4).code(), StatusCode::kInvalidArgument);
    options = FaultOptions();
    options.dedup_failure_p = bad;
    EXPECT_EQ(options.Validate(4).code(), StatusCode::kInvalidArgument);
    options = FaultOptions();
    options.straggler_p = bad;
    EXPECT_EQ(options.Validate(4).code(), StatusCode::kInvalidArgument);
  }
}

TEST(FaultOptionsTest, RejectsBadRetryPolicy) {
  FaultOptions options;
  options.max_retries = -1;
  EXPECT_EQ(options.Validate(4).code(), StatusCode::kInvalidArgument);
  options = FaultOptions();
  options.backoff_base_ms = -0.5;
  EXPECT_EQ(options.Validate(4).code(), StatusCode::kInvalidArgument);
}

TEST(FaultOptionsTest, RejectsBadWorkerLoss) {
  FaultOptions options;
  options.lost_worker = 0;
  // Losing one of one workers leaves no survivor to recover on.
  EXPECT_EQ(options.Validate(1).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(options.Validate(2).ok());
  options.lost_worker = 7;
  EXPECT_EQ(options.Validate(4).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(options.Validate(8).ok());
}

TEST(FaultOptionsTest, RejectsBadStragglerPolicy) {
  for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    FaultOptions options;
    options.straggler_delay_ms = bad;
    EXPECT_EQ(options.Validate(4).code(), StatusCode::kInvalidArgument)
        << bad;
  }
  FaultOptions options;
  options.straggler_delay_ms = 0.0;
  EXPECT_TRUE(options.Validate(4).ok());
}

TEST(FaultOptionsTest, FailureProbabilityIsPerPhase) {
  FaultOptions options;
  options.map_failure_p = 0.1;
  options.regroup_failure_p = 0.2;
  options.join_failure_p = 0.3;
  options.dedup_failure_p = 0.4;
  EXPECT_DOUBLE_EQ(options.FailureProbability(Phase::kMap), 0.1);
  EXPECT_DOUBLE_EQ(options.FailureProbability(Phase::kRegroup), 0.2);
  EXPECT_DOUBLE_EQ(options.FailureProbability(Phase::kJoin), 0.3);
  EXPECT_DOUBLE_EQ(options.FailureProbability(Phase::kDedupScatter), 0.4);
  EXPECT_DOUBLE_EQ(options.FailureProbability(Phase::kDedupMerge), 0.4);
}

TEST(FaultInjectorTest, DecisionsAreDeterministicPerSeed) {
  FaultOptions options;
  options.seed = 1234;
  options.join_failure_p = 0.5;
  const FaultInjector a(options);
  const FaultInjector b(options);
  for (int task = 0; task < 64; ++task) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      EXPECT_EQ(a.ShouldFail(Phase::kJoin, task, attempt),
                b.ShouldFail(Phase::kJoin, task, attempt))
          << "task " << task << " attempt " << attempt;
    }
  }
}

TEST(FaultInjectorTest, DifferentSeedsGiveDifferentFaultPatterns) {
  FaultOptions options;
  options.join_failure_p = 0.5;
  options.seed = 1;
  const FaultInjector a(options);
  options.seed = 2;
  const FaultInjector b(options);
  int differing = 0;
  for (int task = 0; task < 256; ++task) {
    if (a.ShouldFail(Phase::kJoin, task, 0) !=
        b.ShouldFail(Phase::kJoin, task, 0)) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultInjectorTest, AttemptsAreIndependentDecisions) {
  // With p = 0.5 some task must fail on attempt 0 and pass on attempt 1
  // (otherwise a retry could never succeed).
  FaultOptions options;
  options.join_failure_p = 0.5;
  options.seed = 99;
  const FaultInjector injector(options);
  bool found_recovering_task = false;
  for (int task = 0; task < 256 && !found_recovering_task; ++task) {
    if (injector.ShouldFail(Phase::kJoin, task, 0) &&
        !injector.ShouldFail(Phase::kJoin, task, 1)) {
      found_recovering_task = true;
    }
  }
  EXPECT_TRUE(found_recovering_task);
}

TEST(FaultInjectorTest, ProbabilityExtremes) {
  FaultOptions options;
  options.join_failure_p = 0.0;
  {
    const FaultInjector never(options);
    for (int task = 0; task < 32; ++task) {
      EXPECT_FALSE(never.ShouldFail(Phase::kJoin, task, 0));
    }
  }
  options.join_failure_p = 1.0;
  {
    const FaultInjector always(options);
    for (int task = 0; task < 32; ++task) {
      EXPECT_TRUE(always.ShouldFail(Phase::kJoin, task, 0));
      EXPECT_TRUE(always.ShouldFail(Phase::kJoin, task, 3));
    }
  }
}

TEST(FaultInjectorTest, EmpiricalFailureRateTracksProbability) {
  FaultOptions options;
  options.join_failure_p = 0.2;
  options.seed = 7;
  const FaultInjector injector(options);
  int failures = 0;
  constexpr int kTasks = 10000;
  for (int task = 0; task < kTasks; ++task) {
    if (injector.ShouldFail(Phase::kJoin, task, 0)) ++failures;
  }
  const double rate = static_cast<double>(failures) / kTasks;
  EXPECT_NEAR(rate, 0.2, 0.02);
}

TEST(FaultInjectorTest, TargetedFailureFiresOnFirstAttemptOnly) {
  const FaultOptions options;  // all probabilities zero
  FaultInjector injector(options);
  injector.AddTargetedFailure(Phase::kJoin, 5);
  EXPECT_TRUE(injector.ShouldFail(Phase::kJoin, 5, 0));
  EXPECT_FALSE(injector.ShouldFail(Phase::kJoin, 5, 1));  // retry succeeds
  EXPECT_FALSE(injector.ShouldFail(Phase::kJoin, 4, 0));  // other tasks clean
  EXPECT_FALSE(injector.ShouldFail(Phase::kMap, 5, 0));   // other phases clean
}

TEST(FaultInjectorTest, StragglersOnlyOnFirstAttempts) {
  FaultOptions options;
  options.straggler_p = 1.0;
  const FaultInjector injector(options);
  EXPECT_TRUE(injector.IsStraggler(Phase::kJoin, 0, 0));
  EXPECT_FALSE(injector.IsStraggler(Phase::kJoin, 0, 1));
  EXPECT_GT(injector.StragglerDelaySeconds(), 0.0);
}

TEST(FaultInjectorTest, WorkerLossScopedToPhase) {
  FaultOptions options;
  options.lost_worker = 2;
  options.lost_worker_phase = Phase::kJoin;
  const FaultInjector injector(options);
  EXPECT_EQ(injector.lost_worker(), 2);
  EXPECT_TRUE(injector.LosesWorkerIn(Phase::kJoin));
  EXPECT_FALSE(injector.LosesWorkerIn(Phase::kMap));
  EXPECT_FALSE(injector.LosesWorkerIn(Phase::kRegroup));
}

TEST(FaultInjectorTest, NoLossConfiguredByDefault) {
  const FaultInjector injector(FaultOptions{});
  EXPECT_EQ(injector.lost_worker(), -1);
  EXPECT_FALSE(injector.LosesWorkerIn(Phase::kJoin));
}

}  // namespace
}  // namespace pasjoin::exec
