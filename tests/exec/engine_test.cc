// Copyright 2026 The pasjoin Authors.
#include "exec/engine.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/engine_test_util.h"
#include "exec/thread_pool.h"
#include "test_util.h"

namespace pasjoin::exec {
namespace {

using pasjoin::testing::BruteForcePairs;
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

TEST(EngineTest, KernelSelectionMatrixAgrees) {
  // Both LocalJoinKernels selected through EngineOptions must produce the
  // same result multiset and report their own name in the metrics. The
  // R-tree indexes S, or R once R is the larger input: both sides run.
  const Dataset r = MakeDataset(RandomPoints(250, 13), 0, "R");
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  EngineOptions options = BaseOptions();
  options.collect_results = true;
  const AssignFn assign = BandAssign(options.eps, Side::kS);
  for (const size_t s_size : {size_t{250}, size_t{120}}) {
    const Dataset s = MakeDataset(RandomPoints(s_size, 14), 1000, "S");
    const auto truth = BruteForcePairs(r, s, options.eps);
    for (const spatial::LocalJoinKernel kernel :
         {spatial::LocalJoinKernel::kSweepSoA,
          spatial::LocalJoinKernel::kRTree}) {
      options.local_kernel = kernel;
      const std::string label = std::string(spatial::LocalJoinKernelName(
                                    kernel)) +
                                "/|S|=" + std::to_string(s_size);
      JoinRun run = MustRun(r, s, assign, owner, options);
      EXPECT_EQ(run.metrics.local_kernel,
                spatial::LocalJoinKernelName(kernel));
      ASSERT_EQ(run.pairs.size(), truth.size()) << label;
      std::sort(run.pairs.begin(), run.pairs.end());
      size_t i = 0;
      for (const auto& [pair, count] : truth) {
        (void)count;
        EXPECT_EQ(run.pairs[i++], pair) << label;
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

/// Copies BOTH sides into every partition within `reach` of the tuple's x,
/// so a pair near a border is discovered once per shared partition.
AssignFn ReplicateBoth(double reach) {
  return [reach](const Tuple& t, Side) {
    PartitionList out;
    const int native = std::clamp(static_cast<int>(t.pt.x), 0, 9);
    out.push_back(native);
    const int lo = std::clamp(static_cast<int>(t.pt.x - reach), 0, 9);
    const int hi = std::clamp(static_cast<int>(t.pt.x + reach), 0, 9);
    for (int p = lo; p <= hi; ++p) {
      if (p != native) out.push_back(p);
    }
    return out;
  };
}

/// Runs the dedup path with collected results and expects exactly the
/// brute-force pairs, with duplicates present before the distinct.
void ExpectExactDistinct(const Dataset& r, const Dataset& s,
                         const AssignFn& assign, EngineOptions options) {
  const OwnerFn owner = [workers = options.workers](PartitionId p) {
    return p % workers;
  };
  const auto truth = BruteForcePairs(r, s, options.eps);
  ASSERT_GT(MustRun(r, s, assign, owner, options).metrics.results,
            truth.size());  // duplicates present
  options.deduplicate = true;
  options.collect_results = true;
  JoinRun run = MustRun(r, s, assign, owner, options);
  EXPECT_EQ(run.metrics.results, truth.size());
  EXPECT_GT(run.metrics.dedup_seconds, 0.0);
  ASSERT_EQ(run.pairs.size(), truth.size());
  std::sort(run.pairs.begin(), run.pairs.end());
  size_t i = 0;
  for (const auto& [pair, count] : truth) {
    (void)count;
    EXPECT_EQ(run.pairs[i++], pair);
  }
}

TEST(EngineTest, DeduplicateRemovesInflatedResults) {
  // Replicate BOTH sides: every pair within one partition of the border is
  // discovered twice; dedup must restore the exact pairs.
  const Dataset r = MakeDataset(RandomPoints(300, 9), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(300, 10), 1000, "S");
  ExpectExactDistinct(r, s, ReplicateBoth(0.25), BaseOptions());
}

TEST(EngineTest, DeduplicateKeepsExtremeIds) {
  // Tuple ids are arbitrary int64_t: every value, INT64_MIN and 0 included,
  // is a real id, so the distinct's table cannot reserve one as "empty".
  // The extreme-id tuples sit on a partition border and are all within eps
  // of each other, so each of their pairs is found twice.
  const std::vector<int64_t> ids = {std::numeric_limits<int64_t>::min(),
                                    std::numeric_limits<int64_t>::max(), -1,
                                    0};
  Dataset r = MakeDataset(RandomPoints(200, 41), 1, "R");
  Dataset s = MakeDataset(RandomPoints(200, 42), 1000, "S");
  for (size_t i = 0; i < ids.size(); ++i) {
    const double x = 4.95 + 0.03 * static_cast<double>(i);
    r.tuples.push_back(Tuple{ids[i], Point{x, 0.5}, ""});
    s.tuples.push_back(Tuple{ids[i], Point{x, 0.52}, ""});
  }
  ExpectExactDistinct(r, s, ReplicateBoth(0.25), BaseOptions());
}

TEST(EngineTest, DeduplicateHeavyDuplication) {
  // Both sides copied into the 4 partitions on either side: a close pair is
  // found in up to 9 partitions, so the table sees long runs of repeats.
  const Dataset r = MakeDataset(RandomPoints(300, 43), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(300, 44), 1000, "S");
  ExpectExactDistinct(r, s, ReplicateBoth(4.0), BaseOptions());
}

TEST(EngineTest, DeduplicateEdgeWorkerCounts) {
  // One worker: a single bucket holds every pair. 64 workers over a handful
  // of pairs: most buckets are empty.
  const Dataset r = MakeDataset(RandomPoints(300, 45), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(300, 46), 1000, "S");
  EngineOptions options = BaseOptions();
  options.workers = 1;
  ExpectExactDistinct(r, s, ReplicateBoth(0.25), options);

  const Dataset r_small = MakeDataset(RandomPoints(12, 47), 0, "R");
  const Dataset s_small = MakeDataset(RandomPoints(12, 48), 1000, "S");
  options.workers = 64;
  options.num_splits = 16;
  ExpectExactDistinct(r_small, s_small, ReplicateBoth(4.0), options);
}

TEST(EngineTest, DeduplicateKeepsFirstSeenOrder) {
  // The distinct appends each pair when it is first seen, bucket by bucket:
  // an order-sensitive checksum of the UNSORTED collected pairs pins that
  // order. One pool thread makes the join's output order deterministic.
  // The golden value was recorded with the node-based distinct that the
  // flat table replaced.
  const Dataset r = MakeDataset(RandomPoints(300, 49), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(300, 50), 1000, "S");
  EngineOptions options = BaseOptions();
  options.physical_threads = 1;
  options.deduplicate = true;
  options.collect_results = true;
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  const JoinRun run = MustRun(r, s, ReplicateBoth(0.25), owner, options);
  ASSERT_EQ(run.pairs.size(), BruteForcePairs(r, s, options.eps).size());
  uint64_t checksum = 1469598103934665603ULL;  // FNV-1a over the id sequence
  for (const ResultPair& p : run.pairs) {
    checksum = (checksum ^ static_cast<uint64_t>(p.r_id)) * 1099511628211ULL;
    checksum = (checksum ^ static_cast<uint64_t>(p.s_id)) * 1099511628211ULL;
  }
  EXPECT_EQ(checksum, 10047554656918706508ULL);
}

/// The brute-force result pairs, sorted.
std::vector<ResultPair> TruthPairs(const Dataset& r, const Dataset& s,
                                   double eps) {
  std::vector<ResultPair> out;
  for (const auto& [pair, count] : BruteForcePairs(r, s, eps)) {
    (void)count;
    out.push_back(pair);
  }
  return out;
}

TEST(EngineTest, VariablePayloadsTravelThroughEveryKernel) {
  // Payloads of 0..1000 bytes straddle the small-string limit. Every kernel
  // joins exactly and shuffle_bytes counts each instance's header plus its
  // payload. The bytes themselves are checked in shuffle_test.
  Dataset r = MakeDataset(RandomPoints(300, 61), 0, "R");
  Dataset s = MakeDataset(RandomPoints(300, 62), 1000, "S");
  SetExpectedPayloads(&r);
  SetExpectedPayloads(&s);
  EngineOptions options = BaseOptions();
  options.collect_results = true;
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  const AssignFn assign = BandAssign(options.eps, Side::kR);
  const std::vector<ResultPair> truth = TruthPairs(r, s, options.eps);
  const uint64_t bytes = ExpectedShuffleBytes(r, s, assign);
  for (const spatial::LocalJoinKernel kernel :
       {spatial::LocalJoinKernel::kSweepSoA,
        spatial::LocalJoinKernel::kRTree}) {
    options.local_kernel = kernel;
    const JoinRun run = MustRun(r, s, assign, owner, options);
    EXPECT_EQ(SortedPairs(run), truth) << spatial::LocalJoinKernelName(kernel);
    EXPECT_EQ(run.metrics.shuffle_bytes, bytes)
        << spatial::LocalJoinKernelName(kernel);
  }

  // Without carried payloads only the headers travel.
  options.carry_payloads = false;
  const JoinRun bare = MustRun(r, s, assign, owner, options);
  EXPECT_EQ(SortedPairs(bare), truth);
  EXPECT_EQ(bare.metrics.shuffle_bytes,
            kTupleHeaderBytes * bare.metrics.shuffled_tuples);
}

/// Runs the join expecting kInvalidArgument under both executors; returns
/// the (identical) messages' first.
std::string RejectionMessage(const Dataset& r, const Dataset& s,
                             const AssignFn& assign, const OwnerFn& owner) {
  std::string first;
  for (const bool fault : {false, true}) {
    EngineOptions options = BaseOptions();
    options.fault.enabled = fault;
    const Result<JoinRun> run =
        TryRunPartitionedJoin(r, s, assign, owner, options);
    EXPECT_FALSE(run.ok()) << "fault " << fault;
    if (run.ok()) continue;
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
    if (first.empty()) {
      first = run.status().message();
    } else {
      EXPECT_EQ(run.status().message(), first) << "fault " << fault;
    }
  }
  return first;
}

TEST(EngineTest, NegativeAndSparsePartitionIds) {
  // The band partitions renamed to ids from 0 up to 2^31 - 1: the reach
  // sets grow to the largest id, the barrier numbers the runs, and every
  // observable matches the dense ids 0..9, under both executors. The same
  // ids made negative are rejected, naming the lowest offending index.
  constexpr PartitionId kMax = std::numeric_limits<PartitionId>::max();
  constexpr PartitionId kStride = kMax / 9;
  const auto sparse_id = [](PartitionId band) {
    return band == 9 ? kMax : band * kStride;
  };
  const auto band_of = [](PartitionId p) {
    return p == kMax ? 9 : static_cast<int>(p / kStride);
  };
  const Dataset r = MakeDataset(RandomPoints(300, 63), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(300, 64), 1000, "S");
  EngineOptions options = BaseOptions();
  options.collect_results = true;
  const AssignFn dense = BandAssign(options.eps, Side::kS);
  const AssignFn sparse = [&](const Tuple& t, Side side) {
    PartitionList out = dense(t, side);
    for (size_t i = 0; i < out.size(); ++i) out[i] = sparse_id(out[i]);
    return out;
  };
  const OwnerFn sparse_owner = [&](PartitionId p) { return band_of(p) % 4; };
  const std::vector<ResultPair> truth = TruthPairs(r, s, options.eps);
  for (const bool fault : {false, true}) {
    options.fault.enabled = fault;
    const JoinRun want =
        MustRun(r, s, dense, [](PartitionId p) { return p % 4; }, options);
    const JoinRun got = MustRun(r, s, sparse, sparse_owner, options);
    EXPECT_EQ(SortedPairs(got), truth) << "fault " << fault;
    EXPECT_EQ(got.pairs, want.pairs) << "fault " << fault;
    EXPECT_EQ(got.metrics.shuffled_tuples, want.metrics.shuffled_tuples);
    EXPECT_EQ(got.metrics.joinable_tuples, want.metrics.joinable_tuples);
    EXPECT_EQ(got.metrics.shuffle_bytes, want.metrics.shuffle_bytes);
    EXPECT_EQ(got.metrics.shuffle_block_bytes,
              want.metrics.shuffle_block_bytes);
    EXPECT_EQ(got.metrics.shuffle_remote_bytes,
              want.metrics.shuffle_remote_bytes);
    EXPECT_EQ(got.metrics.candidates, want.metrics.candidates);
    EXPECT_EQ(got.metrics.partitions_joined, want.metrics.partitions_joined);
  }

  // R indices 140 and 40 get negative native ids: the lower is named.
  const AssignFn negative = [&](const Tuple& t, Side side) {
    PartitionList out = dense(t, side);
    if (t.id == 140) out[0] = -1;
    if (t.id == 40) out[0] = std::numeric_limits<PartitionId>::min();
    return out;
  };
  const std::string message = RejectionMessage(
      r, s, negative, [](PartitionId p) { return p < 0 ? 0 : p % 4; });
  EXPECT_EQ(message,
            "assign returned negative partition -2147483648 in dataset 'R' "
            "at index 40");
}

TEST(EngineTest, BlocksHoldOnlyJoinableInstances) {
  // S covers half of R's bands, so the partitions R alone reaches are
  // routed and counted but never shipped: without payloads, the blocks
  // allocate the 28 column bytes of each joinable instance, under both
  // executors.
  const Dataset r = MakeDataset(RandomPoints(400, 71), 0, "R");
  Dataset s = MakeDataset(RandomPoints(400, 72), 1000, "S");
  for (Tuple& t : s.tuples) t.pt.x *= 0.5;
  const AssignFn assign = BandAssign(0.25, Side::kR);
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  for (const bool fault : {false, true}) {
    EngineOptions options = BaseOptions();
    options.fault.enabled = fault;
    options.carry_payloads = false;
    const JobMetrics m = MustRun(r, s, assign, owner, options).metrics;
    EXPECT_GT(m.joinable_tuples, 0u) << "fault " << fault;
    EXPECT_LT(m.joinable_tuples, m.shuffled_tuples) << "fault " << fault;
    EXPECT_EQ(m.shuffle_block_bytes, 28 * m.joinable_tuples)
        << "fault " << fault;
  }
}

// --- caller functions validated inside the map tasks ----------------------

TEST(EngineValidationTest, OwnerOutsideWorkersIsRejected) {
  const Dataset r = MakeDataset(RandomPoints(200, 65), 0, "roads");
  const Dataset s = MakeDataset(RandomPoints(200, 66), 1000, "parks");
  const AssignFn assign = BandAssign(0.25, Side::kR);
  // The lowest R index routed to partition 7, natively or as a replica.
  size_t first = r.size();
  for (size_t i = 0; i < r.size() && first == r.size(); ++i) {
    if (assign(r.tuples[i], Side::kR).Contains(7)) first = i;
  }
  ASSERT_LT(first, r.size());
  for (const int bad : {4, -1}) {
    const std::string message = RejectionMessage(
        r, s, assign, [bad](PartitionId p) { return p == 7 ? bad : p % 4; });
    EXPECT_NE(message.find("owner placed partition 7 on worker " +
                           std::to_string(bad)),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("dataset 'roads' at index " + std::to_string(first)),
              std::string::npos)
        << message;
  }
}

/// A router that routes like FnRouter(assign, owner) but whose Owner
/// places partition 7 on worker `workers`, outside [0, workers).
class DisagreeingRouter final : public Router {
 public:
  DisagreeingRouter(const AssignFn& assign, const OwnerFn& owner, int workers)
      : routes_(assign, owner), workers_(workers), owner_(&owner) {}

  size_t Route(std::span<const Tuple> tuples, Side side,
               RoutedBlock* out) const override {
    return routes_.Route(tuples, side, out);
  }
  int Owner(PartitionId p) const override {
    return p == 7 ? workers_ : (*owner_)(p);
  }

 private:
  FnRouter routes_;
  int workers_;
  const OwnerFn* owner_;
};

TEST(EngineValidationTest, OwnerOutsideWorkersAtTheBarrierIsRejected) {
  // Route places every instance inside [0, workers), but Owner places the
  // joinable partition 7 outside: the barrier rejects the run, naming the
  // partition, under both executors, before any block is written.
  const Dataset r = MakeDataset(RandomPoints(200, 65), 0, "roads");
  const Dataset s = MakeDataset(RandomPoints(200, 66), 1000, "parks");
  const AssignFn assign = BandAssign(0.25, Side::kR);
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  for (const bool fault : {false, true}) {
    EngineOptions options = BaseOptions();
    options.fault.enabled = fault;
    const Result<JoinRun> run = TryRunPartitionedJoin(
        r, s, DisagreeingRouter(assign, owner, options.workers), options);
    ASSERT_FALSE(run.ok()) << "fault " << fault;
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(run.status().message(),
              "owner placed partition 7 on worker 4, outside [0, 4)")
        << "fault " << fault;
  }
}

TEST(EngineValidationTest, EmptyPartitionListIsRejected) {
  const Dataset r = MakeDataset(RandomPoints(200, 67), 0, "roads");
  const Dataset s = MakeDataset(RandomPoints(200, 68), 1000, "parks");
  const AssignFn band = BandAssign(0.25, Side::kR);
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  // Two S offenders in different splits: the lower index is named.
  const AssignFn drops_s = [&band](const Tuple& t, Side side) {
    return t.id == 1013 || t.id == 1150 ? PartitionList() : band(t, side);
  };
  std::string message = RejectionMessage(r, s, drops_s, owner);
  EXPECT_NE(message.find("assign returned no partition in dataset 'parks' "
                         "at index 13"),
            std::string::npos)
      << message;
  // An R offender comes first, whatever its index.
  const AssignFn drops_both = [&band](const Tuple& t, Side side) {
    return t.id == 1013 || t.id == 190 ? PartitionList() : band(t, side);
  };
  message = RejectionMessage(r, s, drops_both, owner);
  EXPECT_NE(message.find("dataset 'roads' at index 190"), std::string::npos)
      << message;
}

TEST(EngineValidationTest, ParallelismIsCappedBeforeAnyWork) {
  const Dataset r = MakeDataset(RandomPoints(20, 69), 0, "R");
  const Dataset s = MakeDataset(RandomPoints(20, 70), 1000, "S");
  const AssignFn assign = BandAssign(0.25, Side::kR);
  const OwnerFn owner = [](PartitionId p) { return p % 4; };
  constexpr int kIntMax = std::numeric_limits<int>::max();
  // Each value is rejected before a thread starts or per-worker state is
  // allocated; INT_MAX workers or splits would also overflow the task
  // arithmetic (4 * workers, 2 * num_splits).
  const auto rejects = [&](const char* name, const auto& set) {
    EngineOptions options = BaseOptions();
    set(&options);
    const Status st =
        TryRunPartitionedJoin(r, s, assign, owner, options).status();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.message().find(name), std::string::npos) << st.ToString();
    EXPECT_EQ(AdmitJob(options).code(), StatusCode::kInvalidArgument);
  };
  for (const int threads : {ThreadPool::kMaxThreads + 1, kIntMax}) {
    rejects("physical_threads",
            [threads](EngineOptions* o) { o->physical_threads = threads; });
  }
  for (const int workers : {kMaxWorkers + 1, kIntMax}) {
    rejects("workers", [workers](EngineOptions* o) { o->workers = workers; });
  }
  for (const int splits : {kMaxSplits + 1, kIntMax}) {
    rejects("num_splits",
            [splits](EngineOptions* o) { o->num_splits = splits; });
  }
  // The boundaries themselves are admitted; they are checked on the
  // validators, never run.
  EXPECT_TRUE(ValidateParallelism(kMaxWorkers, kMaxSplits,
                                  ThreadPool::kMaxThreads)
                  .ok());
  EXPECT_TRUE(ValidateParallelism(1, 0, 0).ok());
  EXPECT_TRUE(ValidateThreads(ThreadPool::kMaxThreads, "threads").ok());
  EXPECT_EQ(ValidateThreads(-1, "threads").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateThreads(ThreadPool::kMaxThreads + 1, "threads").message(),
            "threads must be in [0, 256], got 257");
  // The auto count resolves within the cap.
  EXPECT_GE(ThreadPool::DefaultThreads(), 1);
  EXPECT_LE(ThreadPool::DefaultThreads(), ThreadPool::kMaxThreads);
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
