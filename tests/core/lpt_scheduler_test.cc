// Copyright 2026 The pasjoin Authors.
#include "core/lpt_scheduler.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace pasjoin::core {
namespace {

double MaxLoad(const std::vector<double>& loads) {
  return *std::max_element(loads.begin(), loads.end());
}

TEST(CellAssignmentTest, HashCoversAllWorkers) {
  const CellAssignment a = CellAssignment::Hash(4);
  std::vector<int> seen(4, 0);
  for (int32_t c = 0; c < 100; ++c) {
    const int w = a.OwnerOf(c);
    ASSERT_GE(w, 0);
    ASSERT_LT(w, 4);
    ++seen[static_cast<size_t>(w)];
  }
  for (int count : seen) EXPECT_EQ(count, 25);
}

// The hash owner is computed without a divide; it must be the remainder
// exactly, for every id a grid or quadtree numbers and every worker count
// admission accepts. No thread is started.
TEST(CellAssignmentTest, HashOwnerIsTheRemainderForEveryWorkerCount) {
  std::vector<int32_t> ids = {std::numeric_limits<int32_t>::min(), -1, 0,
                              std::numeric_limits<int32_t>::max()};
  for (int32_t c = -300; c <= 3000; ++c) ids.push_back(c);
  // And about 2000 ids spread over the whole range.
  for (int64_t c = std::numeric_limits<int32_t>::min();
       c <= std::numeric_limits<int32_t>::max(); c += 2147483) {
    ids.push_back(static_cast<int32_t>(c));
  }
  std::vector<int> workers;
  for (int w = 1; w <= 1000; ++w) workers.push_back(w);
  workers.push_back(4096);
  workers.push_back(exec::kMaxWorkers);
  for (const int w : workers) {
    const CellAssignment a = CellAssignment::Hash(w);
    for (const int32_t c : ids) {
      const int expected = static_cast<int>(static_cast<uint32_t>(c) %
                                            static_cast<uint32_t>(w));
      ASSERT_EQ(a.OwnerOf(c), expected) << "cell " << c << ", " << w
                                        << " workers";
    }
  }
}

TEST(CellAssignmentTest, LptPlacesHeaviestCellsApart) {
  // Four heavy cells and four workers: LPT gives each worker one heavy cell.
  const std::vector<double> costs = {100, 100, 100, 100, 1, 1, 1, 1};
  const CellAssignment a = CellAssignment::Lpt(costs, 4);
  std::vector<int> heavy_per_worker(4, 0);
  for (int32_t c = 0; c < 4; ++c) ++heavy_per_worker[a.OwnerOf(c)];
  for (int count : heavy_per_worker) EXPECT_EQ(count, 1);
}

TEST(CellAssignmentTest, LptBeatsHashOnSkewedCosts) {
  Rng rng(3);
  std::vector<double> costs(400);
  for (double& c : costs) {
    // Heavy-tailed costs: a few cells dominate.
    c = rng.NextBernoulli(0.05) ? rng.NextUniform(500, 1000)
                                : rng.NextUniform(0, 10);
  }
  const int workers = 8;
  const CellAssignment lpt = CellAssignment::Lpt(costs, workers);
  const CellAssignment hash = CellAssignment::Hash(workers);
  EXPECT_LT(MaxLoad(lpt.WorkerLoads(costs)), MaxLoad(hash.WorkerLoads(costs)));
}

TEST(CellAssignmentTest, LptIsNearOptimal) {
  // LPT's classic bound: makespan <= (4/3 - 1/(3m)) * OPT, and OPT >= total/m.
  Rng rng(5);
  std::vector<double> costs(200);
  double total = 0;
  for (double& c : costs) {
    c = rng.NextUniform(0, 100);
    total += c;
  }
  const int workers = 6;
  const CellAssignment lpt = CellAssignment::Lpt(costs, workers);
  const double opt_lower = total / workers;
  EXPECT_LE(MaxLoad(lpt.WorkerLoads(costs)),
            (4.0 / 3.0) * std::max(opt_lower, *std::max_element(
                                                  costs.begin(), costs.end())) +
                1e-9);
}

TEST(CellAssignmentTest, ZeroCostCellsFallBackToHash) {
  const std::vector<double> costs = {0, 0, 50, 0};
  const CellAssignment a = CellAssignment::Lpt(costs, 2);
  EXPECT_EQ(a.OwnerOf(0), 0);
  EXPECT_EQ(a.OwnerOf(1), 1);
  EXPECT_EQ(a.OwnerOf(3), 1);
}

TEST(CellAssignmentTest, OutOfTableCellsHash) {
  const CellAssignment a = CellAssignment::Lpt({1.0, 2.0}, 3);
  EXPECT_EQ(a.OwnerOf(100), 100 % 3);
  EXPECT_EQ(a.OwnerOf(-5), a.OwnerOf(-5));  // stable
}

TEST(CellAssignmentTest, OwnerFnAdapterMatches) {
  const CellAssignment a = CellAssignment::Lpt({5, 4, 3, 2, 1}, 2);
  const exec::OwnerFn fn = a.AsOwnerFn();
  for (int32_t c = 0; c < 5; ++c) EXPECT_EQ(fn(c), a.OwnerOf(c));
}

TEST(CellAssignmentTest, SingleWorkerTakesEverything) {
  const CellAssignment a = CellAssignment::Lpt({1, 2, 3}, 1);
  for (int32_t c = 0; c < 3; ++c) EXPECT_EQ(a.OwnerOf(c), 0);
}

TEST(CellAssignmentDeathTest, LptRejectsNanCosts) {
  // Regression: a NaN cost used to flow straight into std::sort, breaking
  // its strict-weak-ordering contract (undefined behavior) and silently
  // skewing the placement. Now it aborts loudly at the boundary.
  const std::vector<double> costs = {
      1.0, std::numeric_limits<double>::quiet_NaN(), 3.0};
  EXPECT_DEATH(CellAssignment::Lpt(costs, 2), "isnan");
}

TEST(CellAssignmentDeathTest, LptRejectsNegativeCosts) {
  const std::vector<double> costs = {1.0, -0.5, 3.0};
  EXPECT_DEATH(CellAssignment::Lpt(costs, 2), "cost");
}

TEST(CellAssignmentTest, LptAcceptsInfiniteAndZeroCosts) {
  // Infinities sort fine (they are ordered); only NaN and negatives are
  // rejected. The infinite cell lands alone via LPT's descending order.
  const std::vector<double> costs = {
      0.0, std::numeric_limits<double>::infinity(), 2.0, 1.0};
  const CellAssignment a = CellAssignment::Lpt(costs, 2);
  EXPECT_NE(a.OwnerOf(1), a.OwnerOf(2));
}

}  // namespace
}  // namespace pasjoin::core
