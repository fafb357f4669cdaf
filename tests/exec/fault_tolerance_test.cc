// Copyright 2026 The pasjoin Authors.
//
// Tests of the engine's fault-tolerant execution path: fault-free parity
// with the fast path, exact recovery from injected failures, worker loss,
// stragglers + speculative execution, retry-budget exhaustion, and the
// input-validation contract of TryRunPartitionedJoin
// (docs/FAULT_TOLERANCE.md). The join commits each partition's pairs to
// its own slot, so a recovered run returns the fault-free pairs in the
// same order; the cases that check this compare unsorted, the others
// compare sorted pairs.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/engine.h"
#include "exec/engine_test_util.h"
#include "obs/trace_recorder.h"
#include "test_util.h"

namespace pasjoin::exec {
namespace {

using pasjoin::testing::BruteForcePairs;
using pasjoin::testing::ExpectSameCounters;
using pasjoin::testing::ExpectedShuffleBytes;
using pasjoin::testing::MakeDataset;
using pasjoin::testing::MustRun;
using pasjoin::testing::SetExpectedPayloads;
using pasjoin::testing::SortedPairs;

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
  options.collect_results = true;
  return options;
}

/// Number of committed join-task spans in `recorder`'s trace.
uint64_t CommittedJoinTasks(const obs::TraceRecorder& recorder) {
  uint64_t committed = 0;
  for (const obs::TraceEvent& e : recorder.Snapshot()) {
    if (std::string(e.name) != "join-task") continue;
    int64_t commit = 1;
    for (int i = 0; i < e.num_args; ++i) {
      if (std::string(e.arg_names[i]) == "committed") {
        commit = e.arg_values[i];
      }
    }
    if (commit != 0) ++committed;
  }
  return committed;
}

TEST(FaultToleranceTest, FaultFreeRunMatchesFastPath) {
  // The recovering executor without faults must match the steal executor
  // for every kernel and thread count: same dataflow, same task lists.
  const Dataset r = MakeDataset(RandomPoints(300, 21), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(300, 22), 1000, "S");
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  for (const int threads : {1, 4}) {
    for (const spatial::LocalJoinKernel kernel :
         {spatial::LocalJoinKernel::kSweepSoA,
          spatial::LocalJoinKernel::kRTree}) {
      EngineOptions options = BaseOptions();
      options.physical_threads = threads;
      options.local_kernel = kernel;
      const AssignFn assign = BandAssign(options.eps, Side::kR);
      const std::string label = std::string(spatial::LocalJoinKernelName(
                                    kernel)) +
                                "/T" + std::to_string(threads);

      obs::TraceRecorder fast_trace;
      options.trace = &fast_trace;
      const JoinRun fast = MustRun(r, s, assign, owner, options);
      obs::TraceRecorder tolerant_trace;
      options.trace = &tolerant_trace;
      options.fault.enabled = true;  // all probabilities zero: no faults
      const JoinRun tolerant = MustRun(r, s, assign, owner, options);

      ExpectSameCounters(tolerant.metrics, fast.metrics,
                         {CounterKind::kResult, CounterKind::kFault}, label);
      EXPECT_EQ(CommittedJoinTasks(tolerant_trace),
                CommittedJoinTasks(fast_trace))
          << label;
      EXPECT_EQ(tolerant.pairs, fast.pairs) << label;
      EXPECT_EQ(tolerant.metrics.tasks_failed, 0u) << label;
      EXPECT_EQ(tolerant.metrics.tasks_retried, 0u) << label;
    }
  }
}

TEST(FaultToleranceTest, JoinRunsOneCommittedTaskPerPartition) {
  // Both executors join per (worker, partition): a fault-enabled run has
  // one committed join-task span per joined partition.
  const Dataset r = MakeDataset(RandomPoints(300, 52), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(300, 53), 1000, "S");
  EngineOptions options = BaseOptions();
  options.fault.enabled = true;
  options.fault.seed = 3;
  options.fault.join_failure_p = 0.3;
  options.fault.max_retries = 25;
  options.fault.backoff_base_ms = 0.05;
  obs::TraceRecorder recorder;
  options.trace = &recorder;
  const JoinRun run = MustRun(r, s, BandAssign(options.eps, Side::kR),
                              [](PartitionId p) { return p % 4; }, options);

  EXPECT_GT(run.metrics.partitions_joined, 4u);
  EXPECT_EQ(CommittedJoinTasks(recorder), run.metrics.partitions_joined);
}

TEST(FaultToleranceTest, RecoversExactResultUnderInjectedFailures) {
  const Dataset r = MakeDataset(RandomPoints(400, 23), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(400, 24), 1000, "S");
  EngineOptions options = BaseOptions();
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  const AssignFn assign = BandAssign(options.eps, Side::kR);
  const std::vector<ResultPair> truth =
      SortedPairs(MustRun(r, s, assign, owner, options));

  options.fault.enabled = true;
  options.fault.seed = 42;
  options.fault.map_failure_p = 0.2;
  options.fault.regroup_failure_p = 0.2;
  options.fault.join_failure_p = 0.2;
  options.fault.max_retries = 25;
  options.fault.backoff_base_ms = 0.05;
  const JoinRun recovered = MustRun(r, s, assign, owner, options);

  EXPECT_EQ(SortedPairs(recovered), truth);
  EXPECT_GT(recovered.metrics.tasks_failed, 0u);
  EXPECT_GT(recovered.metrics.tasks_retried, 0u);
  EXPECT_GT(recovered.metrics.recovery_seconds, 0.0);
}

TEST(FaultToleranceTest, SameSeedSameFaultCounts) {
  const Dataset r = MakeDataset(RandomPoints(200, 25), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(200, 26), 1000, "S");
  EngineOptions options = BaseOptions();
  options.fault.enabled = true;
  options.fault.seed = 7;
  options.fault.join_failure_p = 0.5;
  options.fault.max_retries = 25;
  options.fault.backoff_base_ms = 0.05;
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  const AssignFn assign = BandAssign(options.eps, Side::kR);

  const JoinRun a = MustRun(r, s, assign, owner, options);
  const JoinRun b = MustRun(r, s, assign, owner, options);
  // Failure decisions are pure functions of (seed, phase, task, attempt):
  // two runs inject the identical fault pattern regardless of scheduling.
  EXPECT_EQ(a.metrics.tasks_failed, b.metrics.tasks_failed);
  EXPECT_GT(a.metrics.tasks_failed, 0u);
  EXPECT_EQ(SortedPairs(a), SortedPairs(b));
}

/// 64-bit FNV-1a over the (r id, s id) sequence of `pairs`, in order.
uint64_t PairsHash(const std::vector<ResultPair>& pairs) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const ResultPair& p : pairs) {
    for (const int64_t id : {p.r_id, p.s_id}) {
      const auto bits = static_cast<uint64_t>(id);
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (bits >> (8 * byte)) & 0xff;
        h *= 0x100000001b3ULL;
      }
    }
  }
  return h;
}

TEST(FaultToleranceTest, FaultCountsArePinned) {
  // Every injection decision is a pure function of (seed, phase, task,
  // attempt) and the executor's choice of attempts does not depend on
  // timing, so these counts hold exactly at every thread count. So does
  // the order of the result pairs, which the hash pins.
  const Dataset r = MakeDataset(RandomPoints(400, 61), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(400, 62), 1000, "S");
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  struct Pinned {
    const char* name;
    void (*configure)(EngineOptions*);
    uint64_t failed;
    uint64_t retried;
    uint64_t speculated;
    uint64_t pairs_hash;
  };
  const Pinned cases[] = {
      {"failures-every-phase-dedup",
       [](EngineOptions* o) {
         o->deduplicate = true;
         o->fault.seed = 11;
         o->fault.map_failure_p = 0.2;
         o->fault.regroup_failure_p = 0.2;
         o->fault.join_failure_p = 0.2;
         o->fault.dedup_failure_p = 0.2;
         o->fault.max_retries = 25;
         o->fault.backoff_base_ms = 0.05;
       },
       8, 8, 0, 8991743670160203942ULL},
      {"lost-worker-in-join-and-fail-partitions",
       [](EngineOptions* o) {
         o->fault.lost_worker = 1;
         o->fault.lost_worker_phase = Phase::kJoin;
         o->fault.fail_partitions = {2, 7};
       },
       5, 5, 0, 16330336549860968878ULL},
      {"stragglers-speculation-on",
       [](EngineOptions* o) {
         o->fault.seed = 5;
         o->fault.straggler_p = 0.3;
       },
       0, 0, 12, 16330336549860968878ULL},
      {"stragglers-speculation-off",
       [](EngineOptions* o) {
         o->fault.seed = 5;
         o->fault.straggler_p = 0.3;
         o->fault.speculation = false;
       },
       0, 0, 0, 16330336549860968878ULL},
      {"stragglers-and-failing-backups",
       [](EngineOptions* o) {
         o->fault.seed = 1;
         o->fault.straggler_p = 0.3;
         o->fault.map_failure_p = 0.3;
         o->fault.max_retries = 25;
         o->fault.backoff_base_ms = 0.05;
       },
       12, 12, 7, 16330336549860968878ULL},
  };
  for (const Pinned& pin : cases) {
    for (const int threads : {1, 4}) {
      EngineOptions options = BaseOptions();
      options.physical_threads = threads;
      options.fault.enabled = true;
      pin.configure(&options);
      const JoinRun run = MustRun(r, s, BandAssign(options.eps, Side::kR),
                                  owner, options);
      const std::string label =
          std::string(pin.name).append("/T").append(std::to_string(threads));
      EXPECT_EQ(run.metrics.tasks_failed, pin.failed) << label;
      EXPECT_EQ(run.metrics.tasks_retried, pin.retried) << label;
      EXPECT_EQ(run.metrics.tasks_speculated, pin.speculated) << label;
      EXPECT_EQ(PairsHash(run.pairs), pin.pairs_hash) << label;
    }
  }
}

TEST(FaultToleranceTest, RecoversFromWorkerLossInEveryPhase) {
  const Dataset r = MakeDataset(RandomPoints(300, 27), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(300, 28), 1000, "S");
  EngineOptions options = BaseOptions();
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  const AssignFn assign = BandAssign(options.eps, Side::kS);
  const std::vector<ResultPair> truth =
      SortedPairs(MustRun(r, s, assign, owner, options));

  for (const Phase phase : {Phase::kMap, Phase::kRegroup, Phase::kJoin}) {
    EngineOptions faulty = options;
    faulty.fault.enabled = true;
    faulty.fault.lost_worker = 2;
    faulty.fault.lost_worker_phase = phase;
    const JoinRun recovered =
        MustRun(r, s, assign, owner, faulty);
    EXPECT_EQ(SortedPairs(recovered), truth)
        << "loss in phase " << PhaseName(phase);
    EXPECT_GT(recovered.metrics.tasks_failed, 0u)
        << "loss in phase " << PhaseName(phase);
  }
}

TEST(FaultToleranceTest, WorkerLossInJoinRebuildsFromLineage) {
  // Join-phase loss drops the lost worker's in-memory partition buffers;
  // recovery must rebuild them from the retained map outputs (lineage) and
  // report the rebuild time.
  const Dataset r = MakeDataset(RandomPoints(400, 29), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(400, 30), 1000, "S");
  EngineOptions options = BaseOptions();
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  const AssignFn assign = BandAssign(options.eps, Side::kR);
  const std::vector<ResultPair> truth =
      MustRun(r, s, assign, owner, options).pairs;

  options.fault.enabled = true;
  options.fault.lost_worker = 1;
  options.fault.lost_worker_phase = Phase::kJoin;
  const JoinRun recovered = MustRun(r, s, assign, owner, options);
  // The rebuilt store holds the same runs, so even the order is the same.
  EXPECT_EQ(recovered.pairs, truth);
  EXPECT_GT(recovered.metrics.recovery_seconds, 0.0);
}

TEST(FaultToleranceTest, TargetedPartitionFailureRecovers) {
  const Dataset r = MakeDataset(RandomPoints(300, 31), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(300, 32), 1000, "S");
  EngineOptions options = BaseOptions();
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  const AssignFn assign = BandAssign(options.eps, Side::kR);
  const std::vector<ResultPair> truth =
      SortedPairs(MustRun(r, s, assign, owner, options));

  options.fault.enabled = true;
  options.fault.fail_partitions = {3, 7};
  const JoinRun recovered = MustRun(r, s, assign, owner, options);
  EXPECT_EQ(SortedPairs(recovered), truth);
  EXPECT_GT(recovered.metrics.tasks_failed, 0u);
  EXPECT_GT(recovered.metrics.tasks_retried, 0u);
}

TEST(FaultToleranceTest, TargetedPartitionsFailTheirOwnTasks) {
  // Partitions 3 and 7 are both owned by worker 3; each fails the task
  // that joins it, not the worker's whole join, so two tasks fail.
  const Dataset r = MakeDataset(RandomPoints(300, 31), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(300, 32), 1000, "S");
  EngineOptions options = BaseOptions();
  options.fault.enabled = true;
  options.fault.fail_partitions = {3, 7};
  const JoinRun run =
      MustRun(r, s, BandAssign(options.eps, Side::kR),
              [](PartitionId p) { return p % 4; }, options);
  EXPECT_EQ(run.metrics.tasks_failed, 2u);
  EXPECT_EQ(run.metrics.tasks_retried, 2u);
}

/// R over [0, 10) x [0, 1) and S over [0, 5) x [0, 1): under BandAssign
/// with R replicated, partitions 6 to 9 hold R alone, so the map ships
/// only part of what it routes.
struct HalfOverlap {
  Dataset r = MakeDataset(RandomPoints(600, 71), 0, "R");
  Dataset s = MakeDataset(RandomPoints(600, 72), 1000, "S");
  AssignFn assign = BandAssign(0.25, Side::kR);
  OwnerFn owner = [](PartitionId p) { return p % 4; };
  FnRouter router{assign, owner};

  HalfOverlap() {
    for (Tuple& t : s.tuples) t.pt.x *= 0.5;
  }

  JoinRun Run(const EngineOptions& options) const {
    Result<JoinRun> run = TryRunPartitionedJoin(r, s, router, options);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    PASJOIN_CHECK(run.ok());
    return run.MoveValue();
  }
};

/// The committed = 0 spans named `name` in `recorder`'s trace.
size_t FailedSpans(const obs::TraceRecorder& recorder, const char* name) {
  size_t failed = 0;
  for (const obs::TraceEvent& e : recorder.Snapshot()) {
    if (std::string(e.name) != name) continue;
    for (int i = 0; i < e.num_args; ++i) {
      if (std::string(e.arg_names[i]) == "committed" && e.arg_values[i] == 0) {
        ++failed;
      }
    }
  }
  return failed;
}

TEST(FaultToleranceTest, FailedFillAttemptsRetryFromTheirFullStagedLists) {
  // An injected map fault strikes a fill attempt after its body wrote the
  // task's blocks, before they commit. The recovering executor keeps every
  // staged list, so the retry fills from the whole list again: the pairs,
  // their order and every result counter equal a fault-free run's. A fill
  // that freed the list it read would leave its retry nothing to write.
  const HalfOverlap in;
  EngineOptions options = BaseOptions();
  const JoinRun clean = in.Run(options);
  ASSERT_GT(clean.metrics.results, 0u);
  ASSERT_LT(clean.metrics.joinable_tuples, clean.metrics.shuffled_tuples);
  // Only joinable instances were shipped: 28 bytes each, no payloads.
  EXPECT_EQ(clean.metrics.shuffle_block_bytes,
            28 * clean.metrics.joinable_tuples);

  options.fault.enabled = true;
  options.fault.seed = 3;
  options.fault.map_failure_p = 0.5;
  options.fault.max_retries = 25;
  options.fault.backoff_base_ms = 0.05;
  for (const int threads : {1, 4}) {
    options.physical_threads = threads;
    obs::TraceRecorder recorder;
    options.trace = &recorder;
    const JoinRun run = in.Run(options);
    const std::string label = std::string("T").append(std::to_string(threads));
    EXPECT_EQ(run.pairs, clean.pairs) << label;
    ExpectSameCounters(clean.metrics, run.metrics, {CounterKind::kResult},
                       label);
    EXPECT_GT(FailedSpans(recorder, "fill-task"), 0u) << label;
    EXPECT_EQ(FailedSpans(recorder, "map-task"), 0u) << label;
    EXPECT_EQ(run.metrics.tasks_failed, FailedSpans(recorder, "fill-task"))
        << label;
  }
}

TEST(FaultToleranceTest, LostWorkersRebuildFromRetainedFilteredBlocks) {
  // The retained blocks hold only joinable instances. A worker lost in the
  // regroup re-sorts them on a survivor, beside retried regroup faults;
  // one lost in the join has its store rebuilt from them. Each recovers
  // the fault-free pairs in their order, which needs every block intact
  // after the regroups that read it.
  const HalfOverlap in;
  const JoinRun clean = in.Run(BaseOptions());
  ASSERT_LT(clean.metrics.joinable_tuples, clean.metrics.shuffled_tuples);
  struct Scenario {
    const char* name;
    Phase lost_phase;
    double regroup_failure_p;
  };
  for (const Scenario& sc : {Scenario{"lost-in-regroup", Phase::kRegroup, 0.5},
                             Scenario{"lost-in-join", Phase::kJoin, 0.0}}) {
    EngineOptions options = BaseOptions();
    options.fault.enabled = true;
    options.fault.seed = 5;
    options.fault.lost_worker = 2;
    options.fault.lost_worker_phase = sc.lost_phase;
    options.fault.regroup_failure_p = sc.regroup_failure_p;
    options.fault.max_retries = 25;
    options.fault.backoff_base_ms = 0.05;
    const JoinRun run = in.Run(options);
    EXPECT_EQ(run.pairs, clean.pairs) << sc.name;
    ExpectSameCounters(clean.metrics, run.metrics, {CounterKind::kResult},
                       sc.name);
    EXPECT_EQ(run.metrics.shuffle_block_bytes,
              28 * run.metrics.joinable_tuples)
        << sc.name;
    EXPECT_GT(run.metrics.tasks_failed, 0u) << sc.name;
  }
}

TEST(FaultToleranceTest, VariablePayloadsRecoverExactly) {
  // Payloads of 0..1000 bytes through every recovery path: a failed join
  // task re-reads its run, a lost regroup re-sorts the retained blocks, and
  // a worker lost in the join has its store rebuilt from them. Each kernel
  // must reproduce the fault-free result and shuffle_bytes must count each
  // instance's header plus payload.
  Dataset r = MakeDataset(RandomPoints(300, 54), 0, "R");
  Dataset s = MakeDataset(RandomPoints(300, 55), 1000, "S");
  SetExpectedPayloads(&r);
  SetExpectedPayloads(&s);
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  const AssignFn assign = BandAssign(0.25, Side::kR);
  const uint64_t bytes = ExpectedShuffleBytes(r, s, assign);
  const std::vector<ResultPair> truth =
      SortedPairs(MustRun(r, s, assign, owner, BaseOptions()));

  struct Scenario {
    const char* name;
    bool fault;
    std::vector<int32_t> fail_partitions;
    int lost_worker;
    Phase lost_phase;
  };
  const std::vector<Scenario> scenarios = {
      {"steal", false, {}, -1, Phase::kMap},
      {"recovering", true, {}, -1, Phase::kMap},
      {"fail-partitions", true, {3, 7}, -1, Phase::kMap},
      {"lost-in-regroup", true, {}, 3, Phase::kRegroup},
      {"lost-in-join", true, {}, 3, Phase::kJoin},
  };
  for (const Scenario& sc : scenarios) {
    EngineOptions options = BaseOptions();
    options.fault.enabled = sc.fault;
    options.fault.fail_partitions = sc.fail_partitions;
    options.fault.lost_worker = sc.lost_worker;
    options.fault.lost_worker_phase = sc.lost_phase;
    for (const spatial::LocalJoinKernel kernel :
         {spatial::LocalJoinKernel::kSweepSoA,
          spatial::LocalJoinKernel::kRTree}) {
      options.local_kernel = kernel;
      const std::string label =
          std::string(sc.name) + "/" + spatial::LocalJoinKernelName(kernel);
      const JoinRun run = MustRun(r, s, assign, owner, options);
      EXPECT_EQ(SortedPairs(run), truth) << label;
      EXPECT_EQ(run.metrics.shuffle_bytes, bytes) << label;
      if (!sc.fail_partitions.empty() || sc.lost_worker >= 0) {
        EXPECT_GT(run.metrics.tasks_failed, 0u) << label;
      }
    }
  }
}

TEST(FaultToleranceTest, StragglersAreSpeculatedAndResultStaysExact) {
  const Dataset r = MakeDataset(RandomPoints(400, 33), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(400, 34), 1000, "S");
  EngineOptions options = BaseOptions();
  options.physical_threads = 4;
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  const AssignFn assign = BandAssign(options.eps, Side::kR);
  const std::vector<ResultPair> truth =
      MustRun(r, s, assign, owner, options).pairs;

  options.fault.enabled = true;
  options.fault.seed = 5;
  options.fault.straggler_p = 0.25;
  options.fault.straggler_delay_ms = 160.0;
  options.fault.speculation = true;
  const JoinRun recovered = MustRun(r, s, assign, owner, options);
  // Speculation must never duplicate, lose or reorder results.
  EXPECT_EQ(recovered.pairs, truth);
  // With a 160ms injected sleep against sub-millisecond task medians the
  // straggling tasks exceed the speculation threshold.
  EXPECT_GT(recovered.metrics.tasks_speculated, 0u);
}

TEST(FaultToleranceTest, SpeculationCanBeDisabled) {
  const Dataset r = MakeDataset(RandomPoints(150, 35), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(150, 36), 1000, "S");
  EngineOptions options = BaseOptions();
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  const AssignFn assign = BandAssign(options.eps, Side::kR);
  const std::vector<ResultPair> truth =
      SortedPairs(MustRun(r, s, assign, owner, options));

  options.fault.enabled = true;
  options.fault.straggler_p = 0.25;
  options.fault.straggler_delay_ms = 40.0;
  options.fault.speculation = false;
  const JoinRun run = MustRun(r, s, assign, owner, options);
  EXPECT_EQ(run.metrics.tasks_speculated, 0u);
  EXPECT_EQ(SortedPairs(run), truth);
}

TEST(FaultToleranceTest, DedupPathRecoversUnderFailures) {
  // Replicate BOTH sides so the dedup phases run, then inject faults into
  // every phase including dedup.
  const Dataset r = MakeDataset(RandomPoints(250, 37), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(250, 38), 1000, "S");
  EngineOptions options = BaseOptions();
  options.deduplicate = true;
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

  options.fault.enabled = true;
  options.fault.seed = 11;
  options.fault.join_failure_p = 0.3;
  options.fault.dedup_failure_p = 0.3;
  options.fault.max_retries = 25;
  options.fault.backoff_base_ms = 0.05;
  const JoinRun run = MustRun(r, s, both, owner, options);
  EXPECT_EQ(run.metrics.results, truth);
  EXPECT_EQ(run.pairs.size(), truth);
  EXPECT_GT(run.metrics.tasks_failed, 0u);
}

TEST(FaultToleranceTest, SelfJoinRecoversUnderFailures) {
  const Dataset d = MakeDataset(RandomPoints(300, 39), 0, "D");
  EngineOptions options = BaseOptions();
  options.self_join = true;
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  const AssignFn assign = BandAssign(options.eps, Side::kR);
  const std::vector<ResultPair> truth =
      SortedPairs(MustRun(d, d, assign, owner, options));

  options.fault.enabled = true;
  options.fault.seed = 13;
  options.fault.join_failure_p = 0.3;
  options.fault.max_retries = 25;
  options.fault.backoff_base_ms = 0.05;
  options.fault.lost_worker = 3;
  const JoinRun recovered = MustRun(d, d, assign, owner, options);
  EXPECT_EQ(SortedPairs(recovered), truth);
}

TEST(FaultToleranceTest, ExhaustedRetryBudgetReturnsResourceExhausted) {
  const Dataset r = MakeDataset(RandomPoints(100, 40), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(100, 41), 1000, "S");
  EngineOptions options = BaseOptions();
  options.fault.enabled = true;
  options.fault.join_failure_p = 1.0;  // every attempt fails
  options.fault.max_retries = 2;
  options.fault.backoff_base_ms = 0.05;
  const Result<JoinRun> result = TryRunPartitionedJoin(
      r, s, BandAssign(options.eps, Side::kR),
      [](PartitionId p) { return p % 4; }, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("join"), std::string::npos)
      << result.status().ToString();
}

TEST(FaultToleranceTest, ZeroRetriesFailFast) {
  // max_retries = 0: the first injected fault fails the job - without
  // crashing or throwing.
  const Dataset r = MakeDataset(RandomPoints(100, 42), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(100, 43), 1000, "S");
  EngineOptions options = BaseOptions();
  options.fault.enabled = true;
  options.fault.fail_partitions = {0};
  options.fault.max_retries = 0;
  const Result<JoinRun> result = TryRunPartitionedJoin(
      r, s, BandAssign(options.eps, Side::kR),
      [](PartitionId p) { return p % 4; }, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(FaultToleranceTest, ValidationRejectsBadInputs) {
  const Dataset r = MakeDataset(RandomPoints(10, 44), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(10, 45), 1000, "S");
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  const AssignFn assign = BandAssign(0.25, Side::kR);

  EngineOptions options = BaseOptions();
  options.eps = 0.0;
  EXPECT_EQ(TryRunPartitionedJoin(r, s, assign, owner, options).status().code(),
            StatusCode::kInvalidArgument);
  options = BaseOptions();
  options.eps = std::numeric_limits<double>::infinity();
  EXPECT_EQ(TryRunPartitionedJoin(r, s, assign, owner, options).status().code(),
            StatusCode::kInvalidArgument);
  options = BaseOptions();
  options.workers = 0;
  EXPECT_EQ(TryRunPartitionedJoin(r, s, assign, owner, options).status().code(),
            StatusCode::kInvalidArgument);
  options = BaseOptions();
  options.num_splits = -1;
  EXPECT_EQ(TryRunPartitionedJoin(r, s, assign, owner, options).status().code(),
            StatusCode::kInvalidArgument);
  options = BaseOptions();
  options.physical_threads = -2;
  EXPECT_EQ(TryRunPartitionedJoin(r, s, assign, owner, options).status().code(),
            StatusCode::kInvalidArgument);
  options = BaseOptions();
  options.fault.enabled = true;
  options.fault.join_failure_p = 1.5;
  EXPECT_EQ(TryRunPartitionedJoin(r, s, assign, owner, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FaultToleranceTest, ValidationRejectsNonFiniteCoordinates) {
  const Dataset r = MakeDataset(RandomPoints(10, 46), 0, "R");
  Dataset s = MakeDataset(RandomPoints(10, 47), 1000, "S");
  s.tuples[4].pt.y = std::numeric_limits<double>::quiet_NaN();
  const EngineOptions options = BaseOptions();
  const Result<JoinRun> result = TryRunPartitionedJoin(
      r, s, BandAssign(options.eps, Side::kR),
      [](PartitionId p) { return p % 4; }, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("non-finite"), std::string::npos);
}

TEST(FaultToleranceTest, FastPathConvertsTaskExceptionsToInternal) {
  // A throwing task on the fast path must surface as kInternal, not escape
  // as a C++ exception or abort.
  const Dataset r = MakeDataset(RandomPoints(50, 48), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(50, 49), 1000, "S");
  const EngineOptions options = BaseOptions();
  const AssignFn throwing = [](const Tuple&, Side) -> PartitionList {
    throw std::runtime_error("assign exploded");
  };
  const Result<JoinRun> result = TryRunPartitionedJoin(
      r, s, throwing, [](PartitionId p) { return p % 4; }, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("assign exploded"),
            std::string::npos)
      << result.status().ToString();
}

TEST(FaultToleranceTest, FaultPathRetriesRealTaskExceptions) {
  // On the fault-tolerant path a genuinely throwing task is handled by the
  // same retry machinery as injected faults: the first N attempts throw,
  // the next one succeeds, and the job recovers.
  const Dataset r = MakeDataset(RandomPoints(200, 50), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(200, 51), 1000, "S");
  EngineOptions options = BaseOptions();
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  const AssignFn assign = BandAssign(options.eps, Side::kR);
  const std::vector<ResultPair> truth =
      SortedPairs(MustRun(r, s, assign, owner, options));

  options.fault.enabled = true;
  options.fault.backoff_base_ms = 0.05;
  std::atomic<int> boom_budget{3};
  const AssignFn flaky = [&boom_budget, &assign](const Tuple& t, Side side) {
    if (boom_budget.fetch_sub(1, std::memory_order_relaxed) > 0) {
      throw std::runtime_error("transient failure");
    }
    return assign(t, side);
  };
  Result<JoinRun> result =
      TryRunPartitionedJoin(r, s, flaky, owner, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  JoinRun run = result.MoveValue();
  EXPECT_EQ(SortedPairs(run), truth);
  EXPECT_GT(run.metrics.tasks_failed, 0u);
}

}  // namespace
}  // namespace pasjoin::exec
