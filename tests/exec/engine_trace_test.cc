// Copyright 2026 The pasjoin Authors.
//
// Engine-level tests of the execution tracing layer (docs/OBSERVABILITY.md):
// attaching a TraceRecorder must not change any result or counter, and the
// recorded spans must reconcile with the reported JobMetrics.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/adaptive_join.h"
#include "exec/engine.h"
#include "exec/engine_test_util.h"
#include "obs/trace_recorder.h"
#include "test_util.h"

namespace pasjoin::exec {
namespace {

using pasjoin::testing::BruteForcePairs;
using pasjoin::testing::ExpectSameCounters;
using pasjoin::testing::ExportedValue;
using pasjoin::testing::MakeDataset;
using pasjoin::testing::MustRun;

/// 1-D band partitioner over [0, 10): partition = floor(x), replicated side
/// copied into every neighbor partition its eps-ball touches.
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
  options.collect_results = true;
  return options;
}

/// Expects `exported` to hold, each exactly once, every kCounterFields and
/// kGaugeFields row of `m` with its value (a non-finite gauge left out), the
/// worker and thread counts, the two totals and `extra_gauges`, and nothing
/// else.
void ExpectExportOf(const JobMetrics& m, const obs::TraceExport& exported,
                    const std::vector<std::string>& extra_gauges) {
  std::map<std::string, uint64_t> counters;
  for (const auto& [name, value] : exported.counters) {
    EXPECT_TRUE(counters.emplace(name, value).second) << "twice: " << name;
  }
  std::map<std::string, double> gauges;
  for (const auto& [name, value] : exported.gauges) {
    EXPECT_TRUE(gauges.emplace(name, value).second) << "twice: " << name;
  }

  std::map<std::string, uint64_t> want_counters;
  for (const CounterField& f : kCounterFields) {
    want_counters[f.name] = m.*f.member;
  }
  want_counters["workers"] = static_cast<uint64_t>(m.workers);
  want_counters["physical_threads"] = static_cast<uint64_t>(m.physical_threads);
  EXPECT_EQ(counters, want_counters);

  std::map<std::string, double> want_gauges;
  for (const GaugeField& f : kGaugeFields) {
    if (std::isfinite(m.*f.member)) want_gauges[f.name] = m.*f.member;
  }
  want_gauges["total_seconds"] = m.TotalSeconds();
  want_gauges["measured_total_seconds"] = m.MeasuredTotalSeconds();
  for (const std::string& name : extra_gauges) {
    ASSERT_EQ(gauges.count(name), 1u) << name;
    want_gauges[name] = gauges[name];
  }
  EXPECT_EQ(gauges, want_gauges);
}

TEST(EngineTraceTest, TracedAndUntracedRunsProduceIdenticalResults) {
  const Dataset r = MakeDataset(RandomPoints(400, 21), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(400, 22), 1000, "S");
  EngineOptions options = BaseOptions();
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  const AssignFn assign = BandAssign(options.eps, Side::kR);

  JoinRun untraced = MustRun(r, s, assign, owner, options);

  obs::TraceRecorder recorder;
  options.trace = &recorder;
  JoinRun traced = MustRun(r, s, assign, owner, options);

  std::sort(untraced.pairs.begin(), untraced.pairs.end());
  std::sort(traced.pairs.begin(), traced.pairs.end());
  EXPECT_EQ(traced.pairs, untraced.pairs);
  ExpectSameCounters(traced.metrics, untraced.metrics,
                     {CounterKind::kResult, CounterKind::kFault});

  // The traced run actually recorded something, on clean shards.
  EXPECT_GT(recorder.Snapshot().size(), 0u);
  EXPECT_EQ(recorder.dropped_events(), 0u);
}

TEST(EngineTraceTest, TraceCoversEveryPhaseWithWorkerAttribution) {
  const Dataset r = MakeDataset(RandomPoints(300, 23), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(300, 24), 1000, "S");
  EngineOptions options = BaseOptions();
  options.deduplicate = true;
  obs::TraceRecorder recorder;
  options.trace = &recorder;
  const JoinRun run = MustRun(
      r, s, BandAssign(options.eps, Side::kR),
      [](PartitionId p) { return p % 4; }, options);
  (void)run;

  std::map<std::string, size_t> count;
  std::map<std::string, std::set<int32_t>> tracks;
  for (const obs::TraceEvent& e : recorder.Snapshot()) {
    ++count[e.name];
    tracks[e.name].insert(e.track);
  }
  // One driver-track span per engine phase.
  for (const char* phase :
       {"phase-map", "phase-fill", "phase-regroup", "phase-join",
        "phase-dedup-scatter", "phase-dedup-merge"}) {
    EXPECT_EQ(count[phase], 1u) << phase;
    EXPECT_EQ(tracks[phase], std::set<int32_t>{obs::kDriverTrack}) << phase;
  }
  // Task spans land on logical-worker tracks, never the driver's.
  for (const char* task :
       {"map-task", "fill-task", "regroup-task", "join-task",
        "dedup-scatter-task", "dedup-merge-task"}) {
    EXPECT_GT(count[task], 0u) << task;
    for (const int32_t track : tracks[task]) {
      EXPECT_GE(track, 0) << task;
      EXPECT_LT(track, options.workers) << task;
    }
  }
  // The default kernel contributes sort/sweep spans below the join tasks.
  EXPECT_GT(count["kernel-sort"], 0u);
  EXPECT_GT(count["kernel-sweep"], 0u);
}

TEST(EngineTraceTest, JoinPartitionSpansReconcileWithCounters) {
  const Dataset r = MakeDataset(RandomPoints(300, 25), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(300, 26), 1000, "S");
  EngineOptions options = BaseOptions();
  obs::TraceRecorder recorder;
  options.trace = &recorder;
  const JoinRun run = MustRun(
      r, s, BandAssign(options.eps, Side::kR),
      [](PartitionId p) { return p % 4; }, options);

  uint64_t span_candidates = 0;
  uint64_t span_results = 0;
  uint64_t partitions = 0;
  for (const obs::TraceEvent& e : recorder.Snapshot()) {
    if (std::string(e.name) != "join-partition") continue;
    ++partitions;
    for (int i = 0; i < e.num_args; ++i) {
      const std::string arg = e.arg_names[i];
      if (arg == "candidates") {
        span_candidates += static_cast<uint64_t>(e.arg_values[i]);
      } else if (arg == "results") {
        span_results += static_cast<uint64_t>(e.arg_values[i]);
      }
    }
  }
  EXPECT_EQ(partitions, run.metrics.partitions_joined);
  EXPECT_EQ(span_candidates, run.metrics.candidates);
  EXPECT_EQ(span_results, run.metrics.results);

  // The metrics export embedded in the trace mirrors the JobMetrics.
  const obs::TraceExport& exported = recorder.exported();
  EXPECT_EQ(ExportedValue(exported.counters, "candidates"),
            run.metrics.candidates);
  EXPECT_EQ(ExportedValue(exported.counters, "results"), run.metrics.results);
  EXPECT_EQ(ExportedValue(exported.counters, "partitions_joined"),
            run.metrics.partitions_joined);
  EXPECT_EQ(ExportedValue(exported.counters, "shuffled_tuples"),
            run.metrics.shuffled_tuples);
  EXPECT_DOUBLE_EQ(ExportedValue(exported.gauges, "join_seconds"),
                   run.metrics.join_seconds);
}

TEST(EngineTraceTest, CommittedRegroupSpansSumToJoinableTuples) {
  // Each committed regroup-task span carries the instances its store kept.
  // Under the recovering executor, worker 2 is lost in the regroup, so a
  // failed attempt records committed=0 and its retry commits.
  const Dataset r = MakeDataset(RandomPoints(400, 33), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(400, 34), 1000, "S");
  for (const bool fault : {false, true}) {
    EngineOptions options = BaseOptions();
    if (fault) {
      options.fault.enabled = true;
      options.fault.lost_worker = 2;
      options.fault.lost_worker_phase = Phase::kRegroup;
    }
    obs::TraceRecorder recorder;
    options.trace = &recorder;
    // S reaches partition 9 alone: its instances are never kept.
    const JoinRun run = MustRun(
        r, s,
        [](const Tuple& t, Side side) {
          PartitionList out;
          out.push_back(side == Side::kS && t.pt.x >= 9.0
                            ? 9
                            : std::clamp(static_cast<int>(t.pt.x), 0, 8));
          return out;
        },
        [](PartitionId p) { return p % 4; }, options);
    uint64_t kept = 0;
    size_t committed_spans = 0;
    for (const obs::TraceEvent& e : recorder.Snapshot()) {
      if (std::string(e.name) != "regroup-task") continue;
      int64_t committed = 1;
      int64_t span_kept = -1;
      for (int i = 0; i < e.num_args; ++i) {
        const std::string arg = e.arg_names[i];
        if (arg == "committed") committed = e.arg_values[i];
        if (arg == "kept") span_kept = e.arg_values[i];
      }
      if (committed == 0) continue;
      ++committed_spans;
      ASSERT_GE(span_kept, 0);
      kept += static_cast<uint64_t>(span_kept);
    }
    EXPECT_EQ(committed_spans, static_cast<size_t>(options.workers));
    EXPECT_EQ(kept, run.metrics.joinable_tuples) << fault;
    EXPECT_EQ(ExportedValue(recorder.exported().counters, "joinable_tuples"),
              run.metrics.joinable_tuples);
    EXPECT_GT(run.metrics.joinable_tuples, 0u);
    EXPECT_LT(run.metrics.joinable_tuples, run.metrics.shuffled_tuples);
    if (fault) {
      EXPECT_GT(run.metrics.tasks_failed, 0u);
    }
  }
}

TEST(EngineTraceTest, CommittedMapSpansSumToShuffleBlockBytes) {
  // Each committed fill-task span (the map's second phase) carries the
  // bytes its blocks allocate. Under the recovering executor, worker 1 is
  // lost in the fill, so its tasks' failed attempts record committed=0 and
  // their retries commit. The router declares no range, so every routed
  // instance is shipped.
  const Dataset r = MakeDataset(RandomPoints(400, 35), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(400, 36), 1000, "S");
  for (const bool fault : {false, true}) {
    EngineOptions options = BaseOptions();
    if (fault) {
      options.fault.enabled = true;
      options.fault.lost_worker = 1;
      options.fault.lost_worker_phase = Phase::kFill;
    }
    obs::TraceRecorder recorder;
    options.trace = &recorder;
    const JoinRun run =
        MustRun(r, s, BandAssign(options.eps, Side::kR),
                [](PartitionId p) { return p % 4; }, options);
    uint64_t bytes = 0;
    size_t committed_spans = 0;
    for (const obs::TraceEvent& e : recorder.Snapshot()) {
      if (std::string(e.name) != "fill-task") continue;
      int64_t committed = 1;
      int64_t span_bytes = -1;
      for (int i = 0; i < e.num_args; ++i) {
        const std::string arg = e.arg_names[i];
        if (arg == "committed") committed = e.arg_values[i];
        if (arg == "bytes") span_bytes = e.arg_values[i];
      }
      if (committed == 0) continue;
      ++committed_spans;
      ASSERT_GE(span_bytes, 0);
      bytes += static_cast<uint64_t>(span_bytes);
    }
    EXPECT_EQ(committed_spans, 2u * static_cast<size_t>(options.num_splits));
    EXPECT_EQ(bytes, run.metrics.shuffle_block_bytes) << fault;
    EXPECT_EQ(
        ExportedValue(recorder.exported().counters, "shuffle_block_bytes"),
        run.metrics.shuffle_block_bytes);
    // 28 bytes per instance, the four columns: the payloads are empty, so
    // no block allocates end offsets.
    EXPECT_EQ(run.metrics.shuffle_block_bytes,
              28 * run.metrics.shuffled_tuples);
    if (fault) {
      EXPECT_GT(run.metrics.tasks_failed, 0u);
    }
  }
}

TEST(EngineTraceTest, FillSpansShipJoinableInstancesOfARangedRouter) {
  // The phase-fill span records the router's declared range, 0 for none.
  // S covers half of R's bands, so five of the ten partitions hold R
  // alone. With the range declared, the committed fill-task spans'
  // instances sum to joinable_tuples under both executors (injected fill
  // faults included); without it, every routed instance ships and they sum
  // to shuffled_tuples.
  const Dataset r = MakeDataset(RandomPoints(400, 37), 0, "R");
  Dataset s = MakeDataset(RandomPoints(400, 38), 1000, "S");
  for (Tuple& t : s.tuples) t.pt.x *= 0.5;
  const AssignFn assign = BandAssign(0.25, Side::kR);
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  const FnRouter ranged(assign, owner, /*partition_count=*/10);
  const FnRouter unranged(assign, owner);
  for (const bool fault : {false, true}) {
    for (const FnRouter* router : {&ranged, &unranged}) {
      EngineOptions options = BaseOptions();
      options.fault.enabled = fault;
      options.fault.map_failure_p = fault ? 0.3 : 0.0;
      options.fault.max_retries = 25;
      options.fault.backoff_base_ms = 0.05;
      obs::TraceRecorder recorder;
      options.trace = &recorder;
      Result<JoinRun> result = TryRunPartitionedJoin(r, s, *router, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const JobMetrics& m = result.value().metrics;
      const std::string label = std::string(fault ? "recovering" : "steal")
                                    .append(router == &ranged ? " ranged"
                                                              : " unranged");
      int64_t range = -1;
      uint64_t instances = 0;
      size_t committed_spans = 0;
      for (const obs::TraceEvent& e : recorder.Snapshot()) {
        const std::string name = e.name;
        if (name != "phase-fill" && name != "fill-task") continue;
        int64_t committed = 1;
        int64_t span_instances = -1;
        for (int i = 0; i < e.num_args; ++i) {
          const std::string arg = e.arg_names[i];
          if (arg == "range") range = e.arg_values[i];
          if (arg == "committed") committed = e.arg_values[i];
          if (arg == "instances") span_instances = e.arg_values[i];
        }
        if (name == "phase-fill" || committed == 0) continue;
        ++committed_spans;
        ASSERT_GE(span_instances, 0) << label;
        instances += static_cast<uint64_t>(span_instances);
      }
      EXPECT_EQ(range, router->partition_count()) << label;
      EXPECT_EQ(committed_spans, 2u * static_cast<size_t>(options.num_splits))
          << label;
      EXPECT_LT(m.joinable_tuples, m.shuffled_tuples) << label;
      EXPECT_EQ(instances, router == &ranged ? m.joinable_tuples
                                             : m.shuffled_tuples)
          << label;
      if (fault) {
        EXPECT_GT(m.tasks_failed, 0u) << label;
      }
    }
  }
}

TEST(EngineTraceTest, ReusedRecorderReflectsTheLatestRunOnly) {
  const Dataset r = MakeDataset(RandomPoints(200, 27), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(200, 28), 1000, "S");
  EngineOptions options = BaseOptions();
  obs::TraceRecorder recorder;
  options.trace = &recorder;
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  const AssignFn assign = BandAssign(options.eps, Side::kR);

  MustRun(r, s, assign, owner, options);
  const JoinRun second = MustRun(r, s, assign, owner, options);
  // The export is reset at run start, not accumulated across runs.
  EXPECT_EQ(ExportedValue(recorder.exported().counters, "candidates"),
            second.metrics.candidates);
  EXPECT_EQ(ExportedValue(recorder.exported().counters, "results"),
            second.metrics.results);
}

TEST(EngineTraceTest, FaultTolerantTracedRunRecordsRecoveryEvents) {
  const Dataset r = MakeDataset(RandomPoints(300, 29), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(300, 30), 1000, "S");
  EngineOptions options = BaseOptions();
  options.fault.enabled = true;
  options.fault.seed = 42;
  options.fault.join_failure_p = 0.3;
  options.fault.max_retries = 25;
  options.fault.backoff_base_ms = 0.05;
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  const AssignFn assign = BandAssign(options.eps, Side::kR);

  const JoinRun clean = MustRun(
      r, s, assign, owner, [&options] {
        EngineOptions o = options;
        o.fault = FaultOptions{};
        return o;
      }());

  obs::TraceRecorder recorder;
  options.trace = &recorder;
  const Result<JoinRun> traced =
      TryRunPartitionedJoin(r, s, assign, owner, options);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  EXPECT_GT(traced.value().metrics.tasks_failed, 0u);

  // Recovery must be invisible in the results...
  std::vector<ResultPair> a = clean.pairs;
  std::vector<ResultPair> b = traced.value().pairs;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);

  // ...but visible in the trace: failure instants, retry instants, and
  // exactly one committed join-task attempt per task.
  std::map<std::string, size_t> count;
  std::map<int64_t, size_t> committed_by_task;
  for (const obs::TraceEvent& e : recorder.Snapshot()) {
    ++count[e.name];
    if (std::string(e.name) != "join-task") continue;
    int64_t task = -1;
    int64_t committed = 1;
    for (int i = 0; i < e.num_args; ++i) {
      const std::string arg = e.arg_names[i];
      if (arg == "task") task = e.arg_values[i];
      if (arg == "committed") committed = e.arg_values[i];
    }
    if (committed != 0) ++committed_by_task[task];
  }
  EXPECT_EQ(count["fault-failure"], traced.value().metrics.tasks_failed);
  EXPECT_EQ(count["fault-retry"], traced.value().metrics.tasks_retried);
  EXPECT_GT(count["fault-backoff"], 0u);
  // More attempts than tasks ran, but each task committed exactly once.
  EXPECT_GT(count["join-task"], committed_by_task.size());
  for (const auto& [task, commits] : committed_by_task) {
    EXPECT_EQ(commits, 1u) << "task " << task;
  }
}

TEST(EngineTraceTest, CommittedJoinTaskSpansSumToWorkerBusyTime) {
  // No busy time is lost or counted twice when threads fold their busy
  // rows: per worker, the committed join-task spans sum to
  // worker_busy_join within trace_summary.py's tolerance (5%, or 5 ms for
  // short phases). Both executors, at 5 threads.
  const Dataset r = MakeDataset(RandomPoints(4000, 31), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(4000, 32), 100000, "S");
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  for (const bool fault : {false, true}) {
    EngineOptions options = BaseOptions();
    options.physical_threads = 5;
    options.collect_results = false;
    if (fault) {
      options.fault.enabled = true;
      options.fault.seed = 11;
      options.fault.join_failure_p = 0.3;
      options.fault.max_retries = 25;
      options.fault.backoff_base_ms = 0.05;
    }
    obs::TraceRecorder recorder;
    options.trace = &recorder;
    const JoinRun run = MustRun(r, s, BandAssign(options.eps, Side::kR),
                                owner, options);
    if (fault) {
      EXPECT_GT(run.metrics.tasks_failed, 0u);
    }

    std::vector<double> span_busy(static_cast<size_t>(options.workers), 0.0);
    for (const obs::TraceEvent& e : recorder.Snapshot()) {
      if (std::string(e.name) != "join-task") continue;
      int64_t committed = 1;
      for (int i = 0; i < e.num_args; ++i) {
        if (std::string(e.arg_names[i]) == "committed") {
          committed = e.arg_values[i];
        }
      }
      if (committed == 0) continue;
      ASSERT_GE(e.track, 0);
      ASSERT_LT(e.track, options.workers);
      span_busy[static_cast<size_t>(e.track)] +=
          static_cast<double>(e.duration_ns) * 1e-9;
    }
    const std::vector<double>& busy = run.metrics.worker_busy_join;
    ASSERT_EQ(busy.size(), span_busy.size());
    for (size_t w = 0; w < busy.size(); ++w) {
      EXPECT_NEAR(span_busy[w], busy[w], std::max(0.05 * busy[w], 0.005))
          << (fault ? "fault" : "clean") << " worker " << w;
    }
  }
}

TEST(EngineTraceTest, KernelSortSpansSumToKernelSortSeconds) {
  // Each kernel-sort span and the sort time it adds to kernel_sort_seconds
  // come from one pair of clock readings, so the two sums agree up to the
  // span's whole-nanosecond truncation.
  const Dataset r = MakeDataset(RandomPoints(3000, 35), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(3000, 36), 100000, "S");
  EngineOptions options = BaseOptions();
  options.local_kernel = spatial::LocalJoinKernel::kSweepSoA;
  obs::TraceRecorder recorder;
  options.trace = &recorder;
  const JoinRun run = MustRun(r, s, BandAssign(options.eps, Side::kR),
                              [](PartitionId p) { return p % 4; }, options);
  int64_t span_ns = 0;
  int64_t spans = 0;
  for (const obs::TraceEvent& e : recorder.Snapshot()) {
    if (std::string(e.name) != "kernel-sort") continue;
    span_ns += e.duration_ns;
    ++spans;
  }
  ASSERT_GT(spans, 0);
  EXPECT_NEAR(static_cast<double>(span_ns) * 1e-9,
              run.metrics.kernel_sort_seconds,
              static_cast<double>(spans) * 1e-9);
}

// --- satellite regression: declared-bounds validation at engine ingress ----
//
// Grid::Locate clamps out-of-MBR coordinates into edge cells, so a point
// outside the declared data space used to flow through partitioning
// silently and join against the wrong neighborhood. EngineOptions::bounds
// now rejects such inputs up front.

TEST(EngineTraceTest, ExportHoldsEveryTableFieldOnce) {
  // The engine exports its metrics by itself; Driver::Run replaces that
  // export with one that adds driver_seconds. A deadline far away makes the
  // engine run's slack finite, so both sides of the non-finite rule show.
  const Dataset r = MakeDataset(RandomPoints(400, 37), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(400, 38), 1000, "S");
  {
    EngineOptions options = BaseOptions();
    options.deadline = Deadline::AfterSeconds(3600.0);
    obs::TraceRecorder recorder;
    options.trace = &recorder;
    const JoinRun run =
        MustRun(r, s, BandAssign(options.eps, Side::kR),
                [](PartitionId p) { return p % 4; }, options);
    ASSERT_TRUE(std::isfinite(run.metrics.deadline_slack_seconds));
    ExpectExportOf(run.metrics, recorder.exported(), {});
  }
  {
    core::AdaptiveJoinOptions options;
    options.eps = 0.25;
    options.workers = 4;
    options.physical_threads = 2;
    obs::TraceRecorder recorder;
    options.trace = &recorder;
    Result<JoinRun> run = core::AdaptiveDistanceJoin(r, s, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const JobMetrics& m = run.value().metrics;
    ASSERT_FALSE(std::isfinite(m.deadline_slack_seconds));
    ExpectExportOf(m, recorder.exported(), {"driver_seconds"});
    const double driver_seconds =
        ExportedValue(recorder.exported().gauges, "driver_seconds");
    EXPECT_GT(driver_seconds, 0.0);
    EXPECT_LE(driver_seconds, m.construction_seconds);
  }
}

TEST(EngineBoundsTest, OutOfBoundsPointIsRejectedWithDatasetAndIndex) {
  std::vector<Point> r_pts = RandomPoints(20, 31);
  r_pts[7] = Point{12.5, 0.5};  // outside [0,10) x [0,1)
  const Dataset r = MakeDataset(r_pts, 0, "roads");
  const Dataset s = MakeDataset(RandomPoints(20, 32), 1000, "parks");
  EngineOptions options = BaseOptions();
  options.bounds = Rect{0.0, 0.0, 10.0, 1.0};
  const Result<JoinRun> run = TryRunPartitionedJoin(
      r, s, BandAssign(options.eps, Side::kR),
      [](PartitionId p) { return p % 4; }, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  const std::string message = run.status().ToString();
  EXPECT_NE(message.find("roads"), std::string::npos) << message;
  EXPECT_NE(message.find("index 7"), std::string::npos) << message;
  EXPECT_NE(message.find("outside declared bounds"), std::string::npos)
      << message;
}

TEST(EngineBoundsTest, SecondDatasetIsValidatedToo) {
  const Dataset r = MakeDataset(RandomPoints(20, 33), 0, "roads");
  std::vector<Point> s_pts = RandomPoints(20, 34);
  s_pts[3] = Point{5.0, -2.0};
  const Dataset s = MakeDataset(s_pts, 1000, "parks");
  EngineOptions options = BaseOptions();
  options.bounds = Rect{0.0, 0.0, 10.0, 1.0};
  const Result<JoinRun> run = TryRunPartitionedJoin(
      r, s, BandAssign(options.eps, Side::kR),
      [](PartitionId p) { return p % 4; }, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  const std::string message = run.status().ToString();
  EXPECT_NE(message.find("parks"), std::string::npos) << message;
  EXPECT_NE(message.find("index 3"), std::string::npos) << message;
}

TEST(EngineBoundsTest, BoundaryPointsAreValid) {
  // Closed containment: points exactly on the max edge stay valid (Locate
  // deliberately folds them into the last cell).
  std::vector<Point> r_pts = RandomPoints(20, 35);
  r_pts[0] = Point{10.0, 1.0};  // the far corner
  r_pts[1] = Point{0.0, 0.0};   // the near corner
  const Dataset r = MakeDataset(r_pts, 0, "R");
  const Dataset s = MakeDataset(RandomPoints(20, 36), 1000, "S");
  EngineOptions options = BaseOptions();
  options.bounds = Rect{0.0, 0.0, 10.0, 1.0};
  const Result<JoinRun> run = TryRunPartitionedJoin(
      r, s, BandAssign(options.eps, Side::kR),
      [](PartitionId p) { return p % 4; }, options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
}

TEST(EngineBoundsTest, ZeroAreaBoundsSkipTheCheck) {
  // The default (empty) rect keeps legacy callers working: no declared
  // bounds, no containment requirement.
  std::vector<Point> r_pts = RandomPoints(20, 37);
  r_pts[4] = Point{42.0, 17.0};
  const Dataset r = MakeDataset(r_pts, 0, "R");
  const Dataset s = MakeDataset(RandomPoints(20, 38), 1000, "S");
  const EngineOptions options = BaseOptions();
  const Result<JoinRun> run = TryRunPartitionedJoin(
      r, s, BandAssign(options.eps, Side::kR),
      [](PartitionId p) { return p % 4; }, options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
}

}  // namespace
}  // namespace pasjoin::exec
