// Copyright 2026 The pasjoin Authors.
#include "spatial/sweep_kernel.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace pasjoin::spatial {
namespace {

std::vector<Tuple> RandomTuples(size_t n, uint64_t seed, int64_t id0,
                                double extent = 10.0) {
  Rng rng(seed);
  std::vector<Tuple> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(Tuple{id0 + static_cast<int64_t>(i),
                        Point{rng.NextUniform(0, extent),
                              rng.NextUniform(0, extent)},
                        ""});
  }
  return out;
}

std::vector<ResultPair> SortedOracle(const std::vector<Tuple>& r,
                                     const std::vector<Tuple>& s, double eps) {
  std::vector<ResultPair> expected = NestedLoopJoinPairs(r, s, eps);
  std::sort(expected.begin(), expected.end());
  return expected;
}

std::vector<ResultPair> SortedSoa(const std::vector<Tuple>& r,
                                  const std::vector<Tuple>& s, double eps,
                                  JoinCounters* counters = nullptr) {
  std::vector<ResultPair> got;
  const JoinCounters c = SoaSweepJoinTuples(r, s, eps, &got);
  if (counters != nullptr) *counters = c;
  std::sort(got.begin(), got.end());
  return got;
}

TEST(SoaSweepJoinTest, FindsExactPairs) {
  const std::vector<Tuple> r = {{1, {0, 0}, ""}, {2, {5, 5}, ""}};
  const std::vector<Tuple> s = {{10, {0.5, 0}, ""}, {11, {9, 9}, ""}};
  JoinCounters counters;
  const std::vector<ResultPair> got = SortedSoa(r, s, 1.0, &counters);
  EXPECT_EQ(counters.results, 1u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], (ResultPair{1, 10}));
}

TEST(SoaSweepJoinTest, ThresholdIsInclusive) {
  // Pairs at exactly distance eps must match, on both axes.
  const std::vector<Tuple> r = {{1, {0, 0}, ""}};
  const std::vector<Tuple> x_pair = {{2, {1.0, 0}, ""}};
  const std::vector<Tuple> y_pair = {{3, {0, 1.0}, ""}};
  EXPECT_EQ(SortedSoa(r, x_pair, 1.0).size(), 1u);
  EXPECT_EQ(SortedSoa(r, x_pair, 0.9999).size(), 0u);
  EXPECT_EQ(SortedSoa(r, y_pair, 1.0).size(), 1u);
  EXPECT_EQ(SortedSoa(r, y_pair, 0.9999).size(), 0u);
  // Diagonal: distance exactly eps at (3, 4) with eps = 5.
  const std::vector<Tuple> diag = {{4, {3.0, 4.0}, ""}};
  EXPECT_EQ(SortedSoa(r, diag, 5.0).size(), 1u);
  EXPECT_EQ(SortedSoa(r, diag, 4.9999).size(), 0u);
}

TEST(SoaSweepJoinTest, EmptyInputs) {
  const std::vector<Tuple> empty;
  const std::vector<Tuple> some = RandomTuples(5, 1, 0);
  EXPECT_EQ(SortedSoa(empty, some, 1.0).size(), 0u);
  EXPECT_EQ(SortedSoa(some, empty, 1.0).size(), 0u);
  EXPECT_EQ(SortedSoa(empty, empty, 1.0).size(), 0u);
}

TEST(SoaSweepJoinTest, AllPointsIdentical) {
  // Every R matches every S at distance zero; exercises the tie handling
  // on a fully degenerate x distribution.
  std::vector<Tuple> r, s;
  for (int i = 0; i < 10; ++i) r.push_back({i, {1, 1}, ""});
  for (int i = 0; i < 7; ++i) s.push_back({100 + i, {1, 1}, ""});
  JoinCounters counters;
  const std::vector<ResultPair> got = SortedSoa(r, s, 0.1, &counters);
  EXPECT_EQ(counters.results, 70u);
  EXPECT_EQ(got, SortedOracle(r, s, 0.1));
}

TEST(SoaSweepJoinTest, DuplicatedXCoordinates) {
  // Columns of points sharing x values; matches are decided purely by the
  // y-filter + exact check.
  std::vector<Tuple> r, s;
  int64_t id = 0;
  for (int col = 0; col < 4; ++col) {
    for (int row = 0; row < 6; ++row) {
      r.push_back({id++, {static_cast<double>(col), 0.5 * row}, ""});
      s.push_back({1000 + id, {static_cast<double>(col), 0.5 * row + 0.25}, ""});
    }
  }
  for (const double eps : {0.2, 0.25, 0.3, 1.0, 2.5}) {
    EXPECT_EQ(SortedSoa(r, s, eps), SortedOracle(r, s, eps)) << "eps " << eps;
  }
}

TEST(SoaSweepJoinTest, MatchesNestedLoopOnRandomData) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    const size_t nr = 50 + 17 * seed;
    const size_t ns = 60 + 13 * seed;
    const std::vector<Tuple> r = RandomTuples(nr, seed, 0);
    const std::vector<Tuple> s = RandomTuples(ns, seed + 500, 10000);
    const double eps = 0.25 + 0.1 * static_cast<double>(seed % 6);
    JoinCounters counters;
    const std::vector<ResultPair> got = SortedSoa(r, s, eps, &counters);
    EXPECT_EQ(got, SortedOracle(r, s, eps)) << "seed " << seed;
    EXPECT_EQ(counters.results, got.size()) << "seed " << seed;
  }
}

TEST(SoaSweepJoinTest, CountOnlyModeAgreesWithCollection) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const std::vector<Tuple> r = RandomTuples(200, seed, 0);
    const std::vector<Tuple> s = RandomTuples(180, seed + 50, 1000);
    std::vector<ResultPair> got;
    const JoinCounters collected = SoaSweepJoinTuples(r, s, 0.4, &got);
    const JoinCounters counted = SoaSweepJoinTuples(r, s, 0.4, nullptr);
    EXPECT_EQ(counted.results, collected.results) << "seed " << seed;
    EXPECT_EQ(counted.candidates, collected.candidates) << "seed " << seed;
    EXPECT_EQ(got.size(), collected.results) << "seed " << seed;
  }
}

TEST(SoaSweepJoinTest, AppendsWithoutClobberingExistingPairs) {
  const std::vector<Tuple> r = {{1, {0, 0}, ""}};
  const std::vector<Tuple> s = {{2, {0.5, 0}, ""}};
  std::vector<ResultPair> out = {{42, 43}};
  SoaSweepJoinTuples(r, s, 1.0, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (ResultPair{42, 43}));
  EXPECT_EQ(out[1], (ResultPair{1, 2}));
}

TEST(SoaSweepJoinTest, CandidatesNeverExceedPlaneSweep) {
  // The SoA kernel counts candidates after the y-filter; the generic plane
  // sweep counts them before. On identical inputs the SoA count is a lower
  // bound, and both bound the result count from below.
  for (uint64_t seed = 1; seed <= 15; ++seed) {
    const std::vector<Tuple> r = RandomTuples(300, seed, 0, 40.0);
    const std::vector<Tuple> s = RandomTuples(280, seed + 77, 5000, 40.0);
    const double eps = 0.5 + 0.25 * static_cast<double>(seed % 4);
    JoinCounters soa;
    SortedSoa(r, s, eps, &soa);
    std::vector<Tuple> r_buf = r;
    std::vector<Tuple> s_buf = s;
    const JoinCounters sweep = PlaneSweepJoin(
        &r_buf, &s_buf, eps, [](const Tuple&, const Tuple&) {});
    EXPECT_LE(soa.candidates, sweep.candidates) << "seed " << seed;
    EXPECT_GE(soa.candidates, soa.results) << "seed " << seed;
    EXPECT_EQ(soa.results, sweep.results) << "seed " << seed;
  }
}

TEST(SoaSweepJoinTest, LargeBatchFlushes) {
  // More results than one emission batch (1024) to exercise the flush
  // path: two dense clusters where every R matches every S.
  std::vector<Tuple> r, s;
  for (int i = 0; i < 60; ++i) {
    r.push_back({i, {0.001 * i, 0.001 * i}, ""});
  }
  for (int i = 0; i < 60; ++i) {
    s.push_back({1000 + i, {0.001 * i, 0.001 * i + 0.01}, ""});
  }
  JoinCounters counters;
  const std::vector<ResultPair> got = SortedSoa(r, s, 1.0, &counters);
  EXPECT_EQ(counters.results, 3600u);
  EXPECT_EQ(got, SortedOracle(r, s, 1.0));
}

TEST(SoaPartitionTest, LoadSortedSortsByXAndIsReusable) {
  SoaPartition part;
  const std::vector<Tuple> a = {{3, {2.0, 9}, ""},
                                {1, {0.5, 7}, ""},
                                {2, {1.0, 8}, ""}};
  part.LoadSorted(a);
  ASSERT_EQ(part.size(), 3u);
  EXPECT_TRUE(std::is_sorted(part.x().begin(), part.x().end()));
  EXPECT_EQ(part.id(), (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(part.y(), (std::vector<double>{7, 8, 9}));

  // Reload with a different (smaller) partition: old contents are gone.
  const std::vector<Tuple> b = {{9, {4.0, 1}, ""}};
  part.LoadSorted(b);
  ASSERT_EQ(part.size(), 1u);
  EXPECT_EQ(part.id()[0], 9);
}

TEST(SoaPartitionTest, TiesBrokenByOriginalIndex) {
  SoaPartition part;
  const std::vector<Tuple> a = {{5, {1.0, 0}, ""},
                                {6, {1.0, 1}, ""},
                                {7, {1.0, 2}, ""}};
  part.LoadSorted(a);
  EXPECT_EQ(part.id(), (std::vector<int64_t>{5, 6, 7}));
}

TEST(SoaPartitionTest, ColumnLoadMatchesTupleLoad) {
  // The column form (what the engine passes: a partition run's slices) and
  // the tuple adapter build the same layout, on both sort paths.
  for (const size_t n : {size_t{200}, size_t{40000}}) {
    const std::vector<Tuple> tuples = RandomTuples(n, 21, 0);
    std::vector<double> x;
    std::vector<double> y;
    std::vector<int64_t> id;
    for (const Tuple& t : tuples) {
      x.push_back(t.pt.x);
      y.push_back(t.pt.y);
      id.push_back(t.id);
    }
    SoaPartition from_tuples;
    SoaPartition from_columns;
    from_tuples.LoadSorted(tuples);
    from_columns.LoadSorted(x, y, id);
    EXPECT_EQ(from_columns.x(), from_tuples.x()) << n;
    EXPECT_EQ(from_columns.y(), from_tuples.y()) << n;
    EXPECT_EQ(from_columns.id(), from_tuples.id()) << n;

    // A slice loads only its own instances.
    const size_t half = n / 2;
    from_columns.LoadSorted(std::span<const double>(x).subspan(half),
                            std::span<const double>(y).subspan(half),
                            std::span<const int64_t>(id).subspan(half));
    ASSERT_EQ(from_columns.size(), n - half);
    EXPECT_TRUE(
        std::is_sorted(from_columns.x().begin(), from_columns.x().end()));
    for (const int64_t got : from_columns.id()) {
      EXPECT_GE(got, static_cast<int64_t>(half));
    }
  }
}

TEST(SoaSweepJoinTest, TimingsAccumulate) {
  KernelTimings timings;
  const std::vector<Tuple> r = RandomTuples(500, 9, 0);
  const std::vector<Tuple> s = RandomTuples(500, 10, 1000);
  SoaSweepJoinTuples(r, s, 0.5, nullptr, &timings);
  EXPECT_GT(timings.sort_seconds, 0.0);
  EXPECT_GT(timings.sweep_seconds, 0.0);
  EXPECT_GE(timings.emit_seconds, 0.0);
  KernelTimings sum = timings;
  sum += timings;
  EXPECT_DOUBLE_EQ(sum.TotalSeconds(), 2.0 * timings.TotalSeconds());
}

TEST(LocalJoinKernelTest, NamesMatchTheRecordedKernels) {
  // JobMetrics::local_kernel and the join-partition spans report these.
  EXPECT_STREQ(LocalJoinKernelName(LocalJoinKernel::kSweepSoA), "sweep-soa");
  EXPECT_STREQ(LocalJoinKernelName(LocalJoinKernel::kRTree), "rtree");
}

}  // namespace
}  // namespace pasjoin::spatial
