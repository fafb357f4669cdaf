// Copyright 2026 The pasjoin Authors.
//
// Tests of the engine's cancellation/deadline contract
// (docs/CANCELLATION.md): pre-cancelled tokens and pre-expired deadlines
// are rejected up front, a mid-run cancel or deadline aborts the job with
// the right status and zero partial results, successful runs under a
// deadline record their slack, and the stuck-task watchdog turns injected
// infinite stragglers into bounded retries with an exact result.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "exec/engine.h"
#include "obs/trace_recorder.h"
#include "test_util.h"

namespace pasjoin::exec {
namespace {

using pasjoin::testing::MakeDataset;

/// 1-D band partitioner over [0, 10): partition = floor(x); the replicated
/// side (R) is copied into every neighbor band its eps-ball touches.
AssignFn BandAssign(double eps) {
  return [eps](const Tuple& t, Side side) {
    PartitionList out;
    const int native = std::clamp(static_cast<int>(t.pt.x), 0, 9);
    out.push_back(native);
    if (side == Side::kR) {
      const int lo = std::clamp(static_cast<int>(t.pt.x - eps), 0, 9);
      const int hi = std::clamp(static_cast<int>(t.pt.x + eps), 0, 9);
      for (int p = lo; p <= hi; ++p) {
        if (p != native) out.push_back(p);
      }
    }
    return out;
  };
}

/// BandAssign with S moved to partitions 100 and up, where no R instance
/// goes: the same shuffle volume, but no partition holds both sides, so the
/// join phase has nothing to join.
AssignFn DisjointBandAssign(double eps) {
  return [band = BandAssign(eps)](const Tuple& t, Side side) {
    PartitionList out = band(t, side);
    if (side == Side::kS) {
      for (size_t i = 0; i < out.size(); ++i) out[i] += 100;
    }
    return out;
  };
}

OwnerFn ModOwner(int workers) {
  return [workers](PartitionId p) {
    return static_cast<int>(static_cast<uint32_t>(p) %
                            static_cast<uint32_t>(workers));
  };
}

std::vector<Point> RandomPoints(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pts.push_back(Point{rng.NextUniform(0, 10), rng.NextUniform(0, 1)});
  }
  return pts;
}

EngineOptions SmallOptions() {
  EngineOptions options;
  options.eps = 0.25;
  options.workers = 4;
  options.num_splits = 8;
  options.physical_threads = 2;
  options.collect_results = true;
  return options;
}

/// Large enough that the join takes well over the deadlines used below on
/// any host (hundreds of millions of candidate pairs), small enough to
/// generate instantly.
EngineOptions BigOptions() {
  EngineOptions options;
  options.eps = 0.5;
  options.workers = 4;
  options.num_splits = 16;
  options.physical_threads = 2;
  options.collect_results = false;
  return options;
}

constexpr size_t kBigN = 400000;

TEST(EngineCancelTest, PreCancelledTokenRejectsRun) {
  const Dataset r = MakeDataset(RandomPoints(50, 1), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(50, 2), 1000, "S");
  EngineOptions options = SmallOptions();
  CancellationSource source;
  source.Cancel(StatusCode::kCancelled, "caller gave up");
  options.cancel = source.token();
  Result<JoinRun> result =
      TryRunPartitionedJoin(r, s, BandAssign(options.eps),
                            ModOwner(options.workers), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(result.status().message(), "caller gave up");
}

TEST(EngineCancelTest, PreExpiredDeadlineRejectsRun) {
  const Dataset r = MakeDataset(RandomPoints(50, 1), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(50, 2), 1000, "S");
  EngineOptions options = SmallOptions();
  options.deadline = Deadline::AfterSeconds(0.0);
  Result<JoinRun> result =
      TryRunPartitionedJoin(r, s, BandAssign(options.eps),
                            ModOwner(options.workers), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(EngineCancelTest, DeadlineAbortsLargeJoin) {
  const Dataset r = MakeDataset(RandomPoints(kBigN, 11), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(kBigN, 12), 1000000, "S");
  EngineOptions options = BigOptions();
  options.deadline = Deadline::AfterSeconds(0.05);
  const Stopwatch sw;
  Result<JoinRun> result =
      TryRunPartitionedJoin(r, s, BandAssign(options.eps),
                            ModOwner(options.workers), options);
  const double elapsed = sw.ElapsedSeconds();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // The abort must be prompt: poll points in every kernel batch bound the
  // overshoot. 2 s is orders of magnitude above the firing latency but
  // still far below the uncancelled runtime of this join.
  EXPECT_LT(elapsed, 2.0);
}

TEST(EngineCancelTest, DeadlineAbortsJoinPhaseForEveryKernel) {
  // The deadline must fire inside the join phase, where each kernel polls
  // on its own: it is set a little after the time a run whose sides never
  // meet needs for everything but the join.
  const Dataset r = MakeDataset(RandomPoints(kBigN, 11), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(kBigN, 12), 1000000, "S");
  for (const spatial::LocalJoinKernel kernel :
       {spatial::LocalJoinKernel::kSweepSoA,
        spatial::LocalJoinKernel::kRTree}) {
    const char* label = spatial::LocalJoinKernelName(kernel);
    EngineOptions options = BigOptions();
    options.local_kernel = kernel;
    const Stopwatch no_join;
    ASSERT_TRUE(TryRunPartitionedJoin(r, s, DisjointBandAssign(options.eps),
                                      ModOwner(options.workers), options)
                    .ok())
        << label;
    const double deadline = no_join.ElapsedSeconds() + 0.2;
    options.deadline = Deadline::AfterSeconds(deadline);
    const Stopwatch sw;
    Result<JoinRun> result =
        TryRunPartitionedJoin(r, s, BandAssign(options.eps),
                              ModOwner(options.workers), options);
    const double elapsed = sw.ElapsedSeconds();
    ASSERT_FALSE(result.ok()) << label;
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded) << label;
    // The same 2 s overshoot bound as above; a kernel that polled only
    // between partitions would finish its partition first (seconds here).
    EXPECT_LT(elapsed - deadline, 2.0) << label;
  }
}

TEST(EngineCancelTest, DeadlineAbortsFaultTolerantJoin) {
  const Dataset r = MakeDataset(RandomPoints(kBigN, 13), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(kBigN, 14), 1000000, "S");
  EngineOptions options = BigOptions();
  options.fault.enabled = true;
  options.deadline = Deadline::AfterSeconds(0.05);
  const Stopwatch sw;
  Result<JoinRun> result =
      TryRunPartitionedJoin(r, s, BandAssign(options.eps),
                            ModOwner(options.workers), options);
  const double elapsed = sw.ElapsedSeconds();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, 2.0);
}

TEST(EngineCancelTest, ExternalCancelAbortsRun) {
  const Dataset r = MakeDataset(RandomPoints(kBigN, 15), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(kBigN, 16), 1000000, "S");
  EngineOptions options = BigOptions();
  CancellationSource source;
  options.cancel = source.token();
  std::thread canceller([&] {
    source.token().WaitForCancellation(0.03);
    source.Cancel(StatusCode::kCancelled, "user pressed ctrl-c");
  });
  Result<JoinRun> result =
      TryRunPartitionedJoin(r, s, BandAssign(options.eps),
                            ModOwner(options.workers), options);
  canceller.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(result.status().message(), "user pressed ctrl-c");
}

TEST(EngineCancelTest, DeadlineInTheJoinLeavesTheTraceRegistryEmpty) {
  // Zero partial results covers the trace's metrics export too: it is reset
  // at job start and written only by a run that succeeds, so a deadline in
  // the join leaves none of the map's or regroup's counters.
  // The deadline is set as in DeadlineAbortsJoinPhaseForEveryKernel.
  const Dataset r = MakeDataset(RandomPoints(kBigN, 11), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(kBigN, 12), 1000000, "S");
  EngineOptions options = BigOptions();
  obs::TraceRecorder recorder;
  options.trace = &recorder;
  const Stopwatch no_join;
  ASSERT_TRUE(TryRunPartitionedJoin(r, s, DisjointBandAssign(options.eps),
                                    ModOwner(options.workers), options)
                  .ok());
  const double deadline = no_join.ElapsedSeconds() + 0.2;
  ASSERT_FALSE(recorder.exported().counters.empty());
  options.deadline = Deadline::AfterSeconds(deadline);
  Result<JoinRun> result =
      TryRunPartitionedJoin(r, s, BandAssign(options.eps),
                            ModOwner(options.workers), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(recorder.exported().counters.empty());
  EXPECT_TRUE(recorder.exported().gauges.empty());
}

/// Runs a small join on the steal executor whose `assign` cancels the
/// job's external source with (`code`, `message`) while routing tuple 7 of
/// R, inside a map task, and then throws when `then_throw`.
Result<JoinRun> RunCancelledFromMapTask(StatusCode code,
                                        const char* message,
                                        bool then_throw) {
  const Dataset r = MakeDataset(RandomPoints(400, 21), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(400, 22), 1000, "S");
  EngineOptions options = SmallOptions();
  CancellationSource source;
  options.cancel = source.token();
  const AssignFn band = BandAssign(options.eps);
  const AssignFn assign = [&](const Tuple& t, Side side) {
    if (side == Side::kR && t.id == 7) {
      source.Cancel(code, message);
      if (then_throw) throw std::runtime_error("assign failed after cancel");
    }
    return band(t, side);
  };
  return TryRunPartitionedJoin(r, s, assign, ModOwner(options.workers),
                               options);
}

TEST(EngineCancelTest, CancelInsideAStealMapTaskReturnsItsStatus) {
  // The run returns the cancel's own code and reason, whichever it is.
  for (const StatusCode code :
       {StatusCode::kCancelled, StatusCode::kDeadlineExceeded}) {
    const Result<JoinRun> result = RunCancelledFromMapTask(
        code, "cancelled by assign", /*then_throw=*/false);
    ASSERT_FALSE(result.ok()) << StatusCodeToString(code);
    EXPECT_EQ(result.status().code(), code);
    EXPECT_EQ(result.status().message(), "cancelled by assign");
  }
}

TEST(EngineCancelTest, TaskErrorAfterACancelIsStillReported) {
  // A task that throws after the job was cancelled fails the run as an
  // internal error: the exception is never hidden behind the cancel.
  const Result<JoinRun> result = RunCancelledFromMapTask(
      StatusCode::kCancelled, "cancelled by assign", /*then_throw=*/true);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("assign failed after cancel"),
            std::string::npos)
      << result.status().message();
}

/// The events of `recorder`'s trace named `name`.
std::vector<obs::TraceEvent> EventsNamed(const obs::TraceRecorder& recorder,
                                         const std::string& name) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& e : recorder.Snapshot()) {
    if (name == e.name) out.push_back(e);
  }
  return out;
}

/// The value of `e`'s arg `name`, or -1 when it has none.
int64_t ArgOf(const obs::TraceEvent& e, const std::string& name) {
  for (int i = 0; i < e.num_args; ++i) {
    if (name == e.arg_names[i]) return e.arg_values[i];
  }
  return -1;
}

TEST(EngineCancelTest, CancelInAStealFillTaskEndsItsSpanAndTheRun) {
  // A cancel that lands in a steal fill task's first pass, before the task
  // sized its blocks, cuts the task short with an empty output. Its traced
  // span still ends, reporting 0 instances and 0 bytes, and the run returns
  // the cancel's status with no partial result. Nothing the caller supplies
  // runs in the fill, so the cancel is timed: an uncancelled traced run
  // gives the fill phase's window, and each try moves the cancel by
  // bisection toward the window until a fill-task span reports 0 bytes. No
  // router range is declared, so every fill task has instances to write
  // and only a cut-short one reports none; no partition holds both sides,
  // so a run the cancel misses ends after an empty join.
  const Dataset r = MakeDataset(RandomPoints(kBigN / 2, 41), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(kBigN / 2, 42), 1000000, "S");
  EngineOptions options = BigOptions();
  const AssignFn assign = DisjointBandAssign(options.eps);
  const OwnerFn owner = ModOwner(options.workers);
  double fill_begin = 0.0;
  double fill_end = 0.0;
  {
    obs::TraceRecorder recorder;
    options.trace = &recorder;
    const int64_t start_ns = recorder.NowNs();
    ASSERT_TRUE(TryRunPartitionedJoin(r, s, assign, owner, options).ok());
    const std::vector<obs::TraceEvent> fill =
        EventsNamed(recorder, "phase-fill");
    ASSERT_EQ(fill.size(), 1u);
    fill_begin = static_cast<double>(fill[0].start_ns - start_ns) / 1e9;
    fill_end = fill_begin + static_cast<double>(fill[0].duration_ns) / 1e9;
  }
  // Cancels before `early` land before the fill, after `late` after it.
  double early = 0.0;
  double late = 2 * fill_end;
  double at = (fill_begin + fill_end) / 2;
  Rng rng(43);
  bool cut_in_first_pass = false;
  for (int attempt = 0; attempt < 60 && !cut_in_first_pass; ++attempt) {
    CancellationSource source;
    options.cancel = source.token();
    obs::TraceRecorder recorder;
    options.trace = &recorder;
    const Stopwatch watch;
    std::thread canceller([&] {
      source.token().WaitForCancellation(at - watch.ElapsedSeconds());
      source.Cancel(StatusCode::kCancelled, "cancelled in the fill");
    });
    const Result<JoinRun> result =
        TryRunPartitionedJoin(r, s, assign, owner, options);
    canceller.join();
    const bool filled = !EventsNamed(recorder, "phase-fill").empty();
    const bool regrouped = !EventsNamed(recorder, "phase-regroup").empty();
    if (result.ok() || regrouped) {
      late = at;
    } else if (!filled) {
      early = at;
    }
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
      EXPECT_EQ(result.status().message(), "cancelled in the fill");
      EXPECT_TRUE(recorder.exported().counters.empty());
    }
    const bool in_fill = filled && !regrouped && !result.ok();
    if (in_fill) {
      for (const obs::TraceEvent& e : EventsNamed(recorder, "fill-task")) {
        if (ArgOf(e, "bytes") == 0) {
          EXPECT_EQ(ArgOf(e, "instances"), 0);
          cut_in_first_pass = true;
        }
      }
    }
    if (late - early < 1e-4) {  // the window moved: widen the search
      early = std::max(0.0, early - (fill_end - fill_begin));
      late += fill_end - fill_begin;
    }
    // A try that landed in the fill, but after each running task's first
    // pass, is followed by one at another point between the bounds.
    at = in_fill ? early + (late - early) * rng.NextUniform(0.2, 0.8)
                 : (early + late) / 2;
  }
  EXPECT_TRUE(cut_in_first_pass);
}

TEST(EngineCancelTest, SuccessfulRunRecordsDeadlineSlack) {
  const Dataset r = MakeDataset(RandomPoints(300, 3), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(300, 4), 1000, "S");
  EngineOptions options = SmallOptions();
  options.deadline = Deadline::AfterSeconds(60.0);
  Result<JoinRun> result =
      TryRunPartitionedJoin(r, s, BandAssign(options.eps),
                            ModOwner(options.workers), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const JobMetrics& m = result.value().metrics;
  EXPECT_TRUE(std::isfinite(m.deadline_slack_seconds));
  EXPECT_GT(m.deadline_slack_seconds, 0.0);
  EXPECT_LE(m.deadline_slack_seconds, 60.0);
}

TEST(EngineCancelTest, NoDeadlineLeavesSlackInfinite) {
  const Dataset r = MakeDataset(RandomPoints(100, 5), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(100, 6), 1000, "S");
  EngineOptions options = SmallOptions();
  Result<JoinRun> result =
      TryRunPartitionedJoin(r, s, BandAssign(options.eps),
                            ModOwner(options.workers), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(std::isinf(result.value().metrics.deadline_slack_seconds));
}

TEST(EngineCancelTest, InvalidWatchdogOptionsRejected) {
  const Dataset r = MakeDataset(RandomPoints(50, 7), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(50, 8), 1000, "S");
  EngineOptions options = SmallOptions();
  options.watchdog.quiet_period_seconds = -1.0;
  Result<JoinRun> result =
      TryRunPartitionedJoin(r, s, BandAssign(options.eps),
                            ModOwner(options.workers), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// A retry backoff longer than the steady clock can hold waits like an
// unlimited one instead of overflowing the clock: the job's deadline ends
// it, and the run reports kDeadlineExceeded.
TEST(EngineCancelTest, HugeBackoffEndsAtTheDeadline) {
  const Dataset r = MakeDataset(RandomPoints(200, 27), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(200, 28), 1000, "S");
  EngineOptions options = SmallOptions();
  options.fault.enabled = true;
  options.fault.map_failure_p = 1.0;
  options.fault.backoff_base_ms = 1e300;
  options.deadline = Deadline::AfterSeconds(0.2);
  const Stopwatch sw;
  Result<JoinRun> result =
      TryRunPartitionedJoin(r, s, BandAssign(options.eps),
                            ModOwner(options.workers), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(sw.ElapsedSeconds(), 30.0);
}

// The acceptance scenario of docs/CANCELLATION.md: every first attempt is
// an "infinite" straggler (it would sleep ~17 minutes); the watchdog
// cancels each stalled attempt after its 50 ms quiet period, the recovery
// runner retries (retries never straggle), and the job completes with the
// exact fault-free result.
TEST(EngineWatchdogTest, InfiniteStragglersAreCancelledAndRetried) {
  const Dataset r = MakeDataset(RandomPoints(400, 21), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(400, 22), 1000, "S");
  EngineOptions options = SmallOptions();

  Result<JoinRun> clean_result =
      TryRunPartitionedJoin(r, s, BandAssign(options.eps),
                            ModOwner(options.workers), options);
  ASSERT_TRUE(clean_result.ok()) << clean_result.status().ToString();
  std::vector<ResultPair> expected = clean_result.MoveValue().pairs;
  std::sort(expected.begin(), expected.end());

  options.fault.enabled = true;
  options.fault.straggler_p = 1.0;
  options.fault.straggler_delay_ms = 1e6;  // "never" finishes on its own
  options.watchdog.enabled = true;
  options.watchdog.quiet_period_seconds = 0.05;
  options.watchdog.poll_interval_seconds = 0.005;

  const Stopwatch sw;
  Result<JoinRun> result =
      TryRunPartitionedJoin(r, s, BandAssign(options.eps),
                            ModOwner(options.workers), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  JoinRun run = result.MoveValue();
  std::sort(run.pairs.begin(), run.pairs.end());
  EXPECT_EQ(run.pairs, expected);
  EXPECT_GT(run.metrics.watchdog_fires, 0u);
  EXPECT_GT(run.metrics.tasks_retried, 0u);
  // Bounded recovery: stalls cost quiet periods, not straggler sleeps.
  EXPECT_LT(sw.ElapsedSeconds(), 60.0);
}

// A quick-firing watchdog must not cancel healthy tasks: with no injected
// stragglers the kernels' heartbeat pulses keep every attempt alive and
// the result stays exact. With `deduplicate`, the dedup scatter and merge
// run too, and they pulse inside their pair loops.
void ExpectSurvivesAggressiveWatchdog(bool deduplicate) {
  const Dataset r = MakeDataset(RandomPoints(500, 23), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(500, 24), 1000, "S");
  EngineOptions options = SmallOptions();
  options.deduplicate = deduplicate;

  Result<JoinRun> clean_result =
      TryRunPartitionedJoin(r, s, BandAssign(options.eps),
                            ModOwner(options.workers), options);
  ASSERT_TRUE(clean_result.ok()) << clean_result.status().ToString();
  std::vector<ResultPair> expected = clean_result.MoveValue().pairs;
  std::sort(expected.begin(), expected.end());

  options.fault.enabled = true;
  options.watchdog.enabled = true;
  options.watchdog.quiet_period_seconds = 0.25;
  options.watchdog.poll_interval_seconds = 0.005;
  Result<JoinRun> result =
      TryRunPartitionedJoin(r, s, BandAssign(options.eps),
                            ModOwner(options.workers), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  JoinRun run = result.MoveValue();
  std::sort(run.pairs.begin(), run.pairs.end());
  EXPECT_EQ(run.pairs, expected);
}

TEST(EngineWatchdogTest, HealthyRunSurvivesAggressiveWatchdog) {
  ExpectSurvivesAggressiveWatchdog(/*deduplicate=*/false);
}

TEST(EngineWatchdogTest, HealthyDedupRunSurvivesAggressiveWatchdog) {
  ExpectSurvivesAggressiveWatchdog(/*deduplicate=*/true);
}

// Stragglers with speculation and the watchdog on: a parked straggler is
// backed up (or resumed) in a later wave, and no two attempts of a task
// run at once, so no attempt is cancelled as a loser. The result must
// equal the clean run's.
TEST(EngineWatchdogTest, StragglersWithSpeculationStayExact) {
  const Dataset r = MakeDataset(RandomPoints(600, 25), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(600, 26), 1000, "S");
  EngineOptions options = SmallOptions();

  Result<JoinRun> clean_result =
      TryRunPartitionedJoin(r, s, BandAssign(options.eps),
                            ModOwner(options.workers), options);
  ASSERT_TRUE(clean_result.ok()) << clean_result.status().ToString();
  std::vector<ResultPair> expected = clean_result.MoveValue().pairs;
  std::sort(expected.begin(), expected.end());

  options.fault.enabled = true;
  options.fault.straggler_p = 0.3;
  options.fault.straggler_delay_ms = 40.0;
  options.fault.speculation = true;
  options.watchdog.enabled = true;
  options.watchdog.quiet_period_seconds = 5.0;  // stalls resolve by racing
  Result<JoinRun> result =
      TryRunPartitionedJoin(r, s, BandAssign(options.eps),
                            ModOwner(options.workers), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  JoinRun run = result.MoveValue();
  std::sort(run.pairs.begin(), run.pairs.end());
  EXPECT_EQ(run.pairs, expected);
}

}  // namespace
}  // namespace pasjoin::exec
