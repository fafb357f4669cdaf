// Copyright 2026 The pasjoin Authors.
//
// The work-stealing engine's determinism contract (docs/PARALLELISM.md):
// physical thread count is an execution detail, never an observable. For
// every (kernel, logical-worker count, fault injection) configuration, a
// run with N threads must produce byte-identical result pairs, in the same
// order and unsorted, and identical counters to the single-threaded run,
// and a run with injected faults the same pairs as the fault-free run.
// Stealing only changes WHERE work executes: every output is written to a
// task-indexed slot (the join's pairs to one slot per partition, read back
// in item order) or to per-thread state the driver folds after the phase.
// Runs under TSan in the multicore CI lane (label: stress), where a data
// race in the steal machinery shows up as a sanitizer report even when the
// outputs happen to agree.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/engine.h"
#include "exec/engine_test_util.h"
#include "test_util.h"

namespace pasjoin::exec {
namespace {

using pasjoin::testing::ExpectSameCounters;
using pasjoin::testing::MakeDataset;
using pasjoin::testing::MustRun;

/// 1-D band partitioner over [0, 10): partition = floor(x), R replicated
/// into every neighbor partition its eps-ball touches — so the join emits
/// cross-partition duplicates and the dedup phases do real work.
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

/// Points uniform in [x_lo, x_hi) x [0, 1).
std::vector<Point> BandPoints(size_t n, double x_lo, double x_hi,
                              uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  for (size_t i = 0; i < n; ++i) {
    pts.push_back(Point{rng.NextUniform(x_lo, x_hi), rng.NextUniform(0, 1)});
  }
  return pts;
}

std::vector<Point> RandomPoints(size_t n, uint64_t seed) {
  return BandPoints(n, 0.0, 10.0, seed);
}

struct MatrixCase {
  spatial::LocalJoinKernel kernel;
  int workers;
  bool fault;
};

std::string CaseName(const MatrixCase& c) {
  std::string name = spatial::LocalJoinKernelName(c.kernel);
  name += "/W";
  name += std::to_string(c.workers);
  name += c.fault ? "/fault" : "/clean";
  return name;
}

EngineOptions CaseOptions(const MatrixCase& c, int threads) {
  EngineOptions options;
  options.eps = 0.25;
  options.workers = c.workers;
  options.num_splits = 8;
  options.physical_threads = threads;
  options.collect_results = true;
  options.deduplicate = true;  // replication makes real duplicates
  options.local_kernel = c.kernel;
  if (c.fault) {
    options.fault.enabled = true;
    options.fault.seed = 0xD15EA5E0ULL + static_cast<uint64_t>(c.workers);
    options.fault.map_failure_p = 0.15;
    options.fault.join_failure_p = 0.2;
    options.fault.max_retries = 6;
    options.fault.backoff_base_ms = 0.05;
  }
  return options;
}

void ExpectIdentical(const JoinRun& base, const JoinRun& run,
                     const std::string& label) {
  EXPECT_EQ(run.pairs, base.pairs) << label;
  ExpectSameCounters(base.metrics, run.metrics, {CounterKind::kResult},
                     label);
}

TEST(ParallelDeterminismTest, ThreadCountIsNeverObservable) {
  const Dataset r = MakeDataset(RandomPoints(500, 71), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(500, 72), 100000, "S");
  const AssignFn assign = BandAssign(0.25);

  const std::vector<MatrixCase> cases = {
      {spatial::LocalJoinKernel::kSweepSoA, 3, false},
      {spatial::LocalJoinKernel::kSweepSoA, 8, false},
      {spatial::LocalJoinKernel::kSweepSoA, 8, true},
      {spatial::LocalJoinKernel::kRTree, 3, false},
      {spatial::LocalJoinKernel::kRTree, 8, false},
      {spatial::LocalJoinKernel::kRTree, 8, true},
  };

  for (const MatrixCase& c : cases) {
    const OwnerFn owner = [w = c.workers](PartitionId p) {
      return static_cast<int>(p) % w;
    };
    // Baseline: one physical thread. Stealing degenerates to sequential
    // execution, so this is the reference the parallel runs must match.
    const JoinRun base = MustRun(r, s, assign, owner, CaseOptions(c, 1));
    EXPECT_GT(base.metrics.results, 0u) << CaseName(c);
    EXPECT_EQ(base.metrics.physical_threads, 1) << CaseName(c);
    if (c.fault) {
      // The recovering executor, retries included, returns the pairs of
      // the steal executor in the same order.
      const JoinRun clean = MustRun(
          r, s, assign, owner, CaseOptions({c.kernel, c.workers, false}, 1));
      ExpectIdentical(clean, base, CaseName(c) + "/vs-clean");
      EXPECT_GT(base.metrics.tasks_failed, 0u) << CaseName(c);
    }

    for (int threads : {2, 5}) {
      const JoinRun run =
          MustRun(r, s, assign, owner, CaseOptions(c, threads));
      EXPECT_EQ(run.metrics.physical_threads, threads) << CaseName(c);
      ExpectIdentical(base, run,
                      CaseName(c) + "/T" + std::to_string(threads));
    }
  }
}

TEST(ParallelDeterminismTest, RepeatedParallelRunsAreIdentical) {
  // Same configuration, several parallel runs: scheduling noise between
  // runs must not leak into any output, pair order included (catches
  // claim-order dependence that a single parallel-vs-sequential comparison
  // could miss by luck). Enough points that the runners interleave.
  const Dataset r = MakeDataset(RandomPoints(3000, 81), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(3000, 82), 50000, "S");
  const AssignFn assign = BandAssign(0.25);
  const OwnerFn owner = [](PartitionId p) { return static_cast<int>(p) % 8; };
  const MatrixCase c{spatial::LocalJoinKernel::kSweepSoA, 8, false};

  const JoinRun first = MustRun(r, s, assign, owner, CaseOptions(c, 5));
  ASSERT_GT(first.pairs.size(), 0u);
  for (int rep = 0; rep < 4; ++rep) {
    const JoinRun again = MustRun(r, s, assign, owner, CaseOptions(c, 5));
    ExpectIdentical(first, again, "rep " + std::to_string(rep));
  }
}

TEST(ParallelDeterminismTest, NoDedupPathIsDeterministicToo) {
  // Without dedup the engine concatenates the join items' pair vectors in
  // item order, so the collected pairs keep one order no matter which
  // threads joined which partitions.
  const Dataset r = MakeDataset(RandomPoints(3000, 91), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(3000, 92), 50000, "S");
  const AssignFn assign = BandAssign(0.25);
  const OwnerFn owner = [](PartitionId p) { return static_cast<int>(p) % 4; };

  EngineOptions options;
  options.eps = 0.25;
  options.workers = 4;
  options.num_splits = 8;
  options.collect_results = true;

  options.physical_threads = 1;
  const JoinRun base = MustRun(r, s, assign, owner, options);
  for (int threads : {2, 5}) {
    options.physical_threads = threads;
    const JoinRun run = MustRun(r, s, assign, owner, options);
    ExpectIdentical(base, run,
                    std::string("T").append(std::to_string(threads)));
  }
}

/// The shuffled instances in a partition that both sides reach, counted
/// from the partition lists `assign` gives.
uint64_t BruteForceJoinable(const Dataset& r, const Dataset& s,
                            const AssignFn& assign) {
  std::map<PartitionId, std::array<uint64_t, 2>> count;
  for (const Side side : {Side::kR, Side::kS}) {
    for (const Tuple& t : (side == Side::kR ? r : s).tuples) {
      const PartitionList parts = assign(t, side);
      for (size_t k = 0; k < parts.size(); ++k) {
        ++count[parts[k]][side == Side::kR ? 0 : 1];
      }
    }
  }
  uint64_t joinable = 0;
  for (const auto& [part, sides] : count) {
    if (sides[0] > 0 && sides[1] > 0) joinable += sides[0] + sides[1];
  }
  return joinable;
}

TEST(ParallelDeterminismTest, PartlyOverlappingClustersJoinExactly) {
  // R covers x in [0, 6), S covers [4, 10), and partitions are quarter-unit
  // bands, so 31 of the 40 partitions hold one side only. Regroup drops
  // those before the join; no counter, pair or pair order may show it.
  const Dataset r = MakeDataset(BandPoints(1500, 0.0, 6.0, 101), 0, "R");
  const Dataset s = MakeDataset(BandPoints(1500, 4.0, 10.0, 102), 50000, "S");
  const double eps = 0.1;
  const AssignFn assign = [eps](const Tuple& t, Side side) {
    PartitionList out;
    const auto band = [](double x) {
      return std::clamp(static_cast<int>(x * 4.0), 0, 39);
    };
    const int native = band(t.pt.x);
    out.push_back(native);
    if (side == Side::kR) {
      for (int p = band(t.pt.x - eps); p <= band(t.pt.x + eps); ++p) {
        if (p != native) out.push_back(p);
      }
    }
    return out;
  };
  const OwnerFn owner = [](PartitionId p) { return static_cast<int>(p) % 5; };
  EngineOptions options;
  options.eps = eps;
  options.workers = 5;
  options.num_splits = 8;
  options.collect_results = true;
  options.physical_threads = 1;
  const JoinRun base = MustRun(r, s, assign, owner, options);

  // Only R replicates and S stays native, so every pair is found once.
  const auto truth = pasjoin::testing::BruteForcePairs(r, s, eps);
  std::vector<ResultPair> sorted = base.pairs;
  std::sort(sorted.begin(), sorted.end());
  ASSERT_EQ(sorted.size(), truth.size());
  size_t i = 0;
  for (const auto& [pair, count] : truth) {
    (void)count;
    EXPECT_EQ(sorted[i++], pair);
  }
  ASSERT_GT(truth.size(), 0u);
  const uint64_t joinable = BruteForceJoinable(r, s, assign);
  EXPECT_EQ(base.metrics.joinable_tuples, joinable);
  EXPECT_LT(2 * joinable, base.metrics.shuffled_tuples);
  EXPECT_EQ(base.metrics.partitions_joined, 9u);

  for (const bool lose_worker : {false, true}) {
    EngineOptions run_options = options;
    if (lose_worker) {
      // The recovering executor, with worker 1's store lost in the join
      // and rebuilt by a second regroup.
      run_options.fault.enabled = true;
      run_options.fault.lost_worker = 1;
      run_options.fault.lost_worker_phase = Phase::kJoin;
    }
    for (const int threads : {1, 4}) {
      run_options.physical_threads = threads;
      const JoinRun run = MustRun(r, s, assign, owner, run_options);
      std::string label = lose_worker ? "lost-worker/T" : "T";
      label += std::to_string(threads);
      ExpectIdentical(base, run, label);
      if (lose_worker) {
        EXPECT_GT(run.metrics.recovery_seconds, 0.0) << label;
      }
    }
  }
}

TEST(ParallelDeterminismTest, RetriedAndBackedUpMapTasksMatchACleanRun) {
  // A map task stages its instances in its thread's scratch, which the
  // thread's next task attempt reuses. A failed, lost or backed-up map
  // attempt must leave nothing there that reaches a later attempt: pairs,
  // their order and every counter equal a fault-free run's at 1 and 4
  // threads. The targeted failure throws from `assign` partway through a
  // split, so its attempt dies with instances already staged; at one
  // thread the retry reuses that very scratch.
  Dataset r = MakeDataset(RandomPoints(3000, 111), 0, "R");
  Dataset s = MakeDataset(RandomPoints(3000, 112), 50000, "S");
  pasjoin::testing::SetExpectedPayloads(&r);
  pasjoin::testing::SetExpectedPayloads(&s);
  const AssignFn band = BandAssign(0.25);
  const OwnerFn owner = [](PartitionId p) { return static_cast<int>(p) % 4; };
  EngineOptions options;
  options.eps = 0.25;
  options.workers = 4;
  options.num_splits = 8;
  options.collect_results = true;
  options.physical_threads = 1;
  const JoinRun base = MustRun(r, s, band, owner, options);
  ASSERT_GT(base.metrics.results, 0u);
  EXPECT_GT(base.metrics.shuffle_block_bytes,
            base.metrics.shuffle_bytes);  // the columns outweigh the wire

  enum class Fault { kThrowOnce, kLoseWorker, kStragglers };
  for (const Fault fault :
       {Fault::kThrowOnce, Fault::kLoseWorker, Fault::kStragglers}) {
    for (const int threads : {1, 4}) {
      EngineOptions run_options = options;
      run_options.physical_threads = threads;
      run_options.fault.enabled = true;
      std::atomic<bool> thrown{false};
      AssignFn assign = band;
      std::string label;
      switch (fault) {
        case Fault::kThrowOnce:
          // Row 1000 of R sits in the middle of split 2 (rows 750-1124).
          assign = [&](const Tuple& t, Side side) {
            if (side == Side::kR && t.id == 1000 && !thrown.exchange(true)) {
              throw std::runtime_error("injected map failure");
            }
            return band(t, side);
          };
          label = "throw-once";
          break;
        case Fault::kLoseWorker:
          run_options.fault.lost_worker = 1;
          run_options.fault.lost_worker_phase = Phase::kMap;
          label = "lost-worker";
          break;
        case Fault::kStragglers:
          run_options.fault.seed = 7;
          run_options.fault.straggler_p = 0.3;
          run_options.fault.straggler_delay_ms = 40.0;
          run_options.fault.speculation = true;
          label = "stragglers";
          break;
      }
      label.append("/T").append(std::to_string(threads));
      const JoinRun run = MustRun(r, s, assign, owner, run_options);
      ExpectIdentical(base, run, label);
      if (fault == Fault::kStragglers) {
        EXPECT_GT(run.metrics.tasks_speculated, 0u) << label;
      } else {
        EXPECT_GT(run.metrics.tasks_failed, 0u) << label;
        EXPECT_GT(run.metrics.tasks_retried, 0u) << label;
      }
    }
  }
}

}  // namespace
}  // namespace pasjoin::exec
