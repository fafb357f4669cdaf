// Copyright 2026 The pasjoin Authors.
#include "extent/extent_join.h"

#include <algorithm>
#include <limits>
#include <map>

#include <gtest/gtest.h>

#include "exec/thread_pool.h"
#include "extent/generators.h"

namespace pasjoin::extent {
namespace {

std::map<ResultPair, int> Oracle(const ExtentDataset& r, const ExtentDataset& s,
                                 double eps) {
  std::map<ResultPair, int> out;
  for (const SpatialObject& a : r.objects) {
    for (const SpatialObject& b : s.objects) {
      if (WithinDistance(a, b, eps)) out[ResultPair{a.id, b.id}] = 1;
    }
  }
  return out;
}

ExtentJoinOptions BaseOptions(double eps) {
  ExtentJoinOptions options;
  options.eps = eps;
  options.workers = 4;
  options.physical_threads = 2;
  options.collect_results = true;
  return options;
}

TEST(ExtentJoinTest, ValidatesOptions) {
  const Rect box{0, 0, 20, 20};
  const ExtentDataset r = GenerateRiverPolylines(10, 1, box);
  ExtentJoinOptions options = BaseOptions(0.0);
  EXPECT_FALSE(GridExtentDistanceJoin(r, r, options).ok());
  const ExtentDataset empty;
  EXPECT_FALSE(GridExtentDistanceJoin(r, empty, BaseOptions(0.5)).ok());
  // Bad worker counts are errors, not crashes.
  for (const int workers : {0, -1}) {
    options = BaseOptions(0.5);
    options.workers = workers;
    const Result<ExtentJoinRun> run = GridExtentDistanceJoin(r, r, options);
    ASSERT_FALSE(run.ok()) << workers;
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument) << workers;
  }
  // Thread counts outside [0, cap] are rejected before any thread starts.
  for (const int threads : {-1, exec::ThreadPool::kMaxThreads + 1,
                            std::numeric_limits<int>::max()}) {
    options = BaseOptions(0.5);
    options.physical_threads = threads;
    const Result<ExtentJoinRun> run = GridExtentDistanceJoin(r, r, options);
    ASSERT_FALSE(run.ok()) << threads;
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument) << threads;
  }
  options = BaseOptions(0.5);
  options.workers = std::numeric_limits<int>::max();
  EXPECT_EQ(GridExtentDistanceJoin(r, r, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ExtentJoinTest, MatchesOracleOnPolylines) {
  const Rect box{0, 0, 30, 30};
  const ExtentDataset r = GenerateRiverPolylines(250, 3, box, 0.8);
  const ExtentDataset s = GenerateRiverPolylines(250, 4, box, 0.8);
  for (const double eps : {0.2, 0.5, 1.0}) {
    const auto truth = Oracle(r, s, eps);
    Result<ExtentJoinRun> run =
        GridExtentDistanceJoin(r, s, BaseOptions(eps));
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run.value().metrics.results, truth.size()) << "eps " << eps;
    // Exactly-once: collected pairs contain no duplicates.
    std::vector<ResultPair> pairs = run.value().pairs;
    std::sort(pairs.begin(), pairs.end());
    EXPECT_TRUE(std::adjacent_find(pairs.begin(), pairs.end()) == pairs.end());
    for (const ResultPair& p : pairs) EXPECT_TRUE(truth.count(p));
  }
}

TEST(ExtentJoinTest, MatchesOracleOnPolygonsAndMixed) {
  const Rect box{0, 0, 25, 25};
  const ExtentDataset rivers = GenerateRiverPolylines(200, 5, box, 0.7);
  const ExtentDataset parks = GenerateParkPolygons(200, 6, box, 0.6);
  const double eps = 0.4;
  const auto truth = Oracle(rivers, parks, eps);
  Result<ExtentJoinRun> run =
      GridExtentDistanceJoin(rivers, parks, BaseOptions(eps));
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().metrics.results, truth.size());

  const auto truth_pp = Oracle(parks, parks, eps);
  Result<ExtentJoinRun> run_pp =
      GridExtentDistanceJoin(parks, parks, BaseOptions(eps));
  ASSERT_TRUE(run_pp.ok());
  EXPECT_EQ(run_pp.value().metrics.results, truth_pp.size());
}

TEST(ExtentJoinTest, LargeObjectsSpanningManyCells) {
  // Objects much larger than a cell exercise the multi-assignment path.
  const Rect box{0, 0, 20, 20};
  ExtentDataset r;
  r.name = "big";
  SpatialObject big;
  big.id = 1;
  big.closed = false;
  big.vertices = {{1, 1}, {19, 1}, {19, 19}, {1, 19}};  // giant polyline
  r.objects.push_back(big);
  ExtentDataset s = GenerateParkPolygons(100, 7, box, 0.5);
  const double eps = 0.3;
  const auto truth = Oracle(r, s, eps);
  Result<ExtentJoinRun> run = GridExtentDistanceJoin(r, s, BaseOptions(eps));
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().metrics.results, truth.size());
  EXPECT_GT(run.value().metrics.replicated_r, 10u);  // spans many cells
}

TEST(ExtentJoinTest, ResolutionSweepStaysCorrect) {
  const Rect box{0, 0, 30, 30};
  const ExtentDataset r = GenerateRiverPolylines(150, 8, box, 0.6);
  const ExtentDataset s = GenerateParkPolygons(150, 9, box, 0.4);
  const double eps = 0.5;
  const size_t truth = Oracle(r, s, eps).size();
  for (const double factor : {1.0, 2.0, 4.0, 8.0}) {
    ExtentJoinOptions options = BaseOptions(eps);
    options.resolution_factor = factor;
    Result<ExtentJoinRun> run = GridExtentDistanceJoin(r, s, options);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(run.value().metrics.results, truth) << "factor " << factor;
  }
}

TEST(ExtentJoinTest, MetricsAreSane) {
  const Rect box{0, 0, 30, 30};
  const ExtentDataset r = GenerateRiverPolylines(300, 10, box, 0.5);
  const ExtentDataset s = GenerateParkPolygons(300, 11, box, 0.4);
  Result<ExtentJoinRun> run = GridExtentDistanceJoin(r, s, BaseOptions(0.4));
  ASSERT_TRUE(run.ok());
  const exec::JobMetrics& m = run.value().metrics;
  EXPECT_EQ(m.algorithm, "extent-grid");
  EXPECT_GT(m.shuffled_tuples, r.size() + s.size());  // some replication
  EXPECT_GT(m.shuffle_bytes, 0u);
  EXPECT_GE(m.candidates, m.results);
  EXPECT_GT(m.partitions_joined, 0u);
  EXPECT_EQ(m.worker_busy_join.size(), 4u);
}

}  // namespace
}  // namespace pasjoin::extent
