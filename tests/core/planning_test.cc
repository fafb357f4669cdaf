// Copyright 2026 The pasjoin Authors.
#include "core/planning.h"

#include <atomic>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "agreements/agreement_graph.h"
#include "common/rng.h"
#include "core/cost_model.h"
#include "core/lpt_scheduler.h"
#include "grid/grid.h"
#include "grid/stats.h"
#include "obs/trace_recorder.h"

namespace pasjoin::core {
namespace {

using agreements::AgreementGraph;
using agreements::MarkingOrder;
using agreements::Policy;
using grid::CellId;
using grid::Grid;
using grid::GridStats;
using grid::QuartetId;

Grid MakeGrid(int nx, int ny) {
  // The extra 0.5 keeps cell sides strictly above 2*eps, so the cell count
  // is exactly nx x ny.
  Rect mbr{0.0, 0.0, nx + 0.5, ny + 0.5};
  Result<Grid> grid = Grid::Make(mbr, 0.5, 2.0);
  EXPECT_TRUE(grid.ok());
  EXPECT_EQ(grid.value().nx(), nx);
  EXPECT_EQ(grid.value().ny(), ny);
  return grid.MoveValue();
}

GridStats RandomStats(const Grid& grid, uint64_t seed, int points) {
  GridStats stats(&grid);
  Rng rng(seed);
  const Rect& mbr = grid.mbr();
  for (int i = 0; i < points; ++i) {
    stats.Add(rng.NextBernoulli(0.5) ? Side::kR : Side::kS,
              Point{rng.NextUniform(mbr.min_x, mbr.max_x),
                    rng.NextUniform(mbr.min_y, mbr.max_y)});
  }
  return stats;
}

PlanningOptions ForceParallel(int threads) {
  PlanningOptions options;
  options.threads = threads;
  options.min_parallel_items = 1;  // Parallelize even tiny test grids.
  return options;
}

/// Field-by-field equality of two built (and possibly marked) graphs.
void ExpectGraphsIdentical(const Grid& grid, const AgreementGraph& a,
                           const AgreementGraph& b) {
  for (QuartetId q = 0; q < grid.num_quartets(); ++q) {
    const agreements::QuartetSubgraph& sa = a.Subgraph(q);
    const agreements::QuartetSubgraph& sb = b.Subgraph(q);
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        if (i == j) continue;
        ASSERT_EQ(sa.type[i][j], sb.type[i][j]) << "quartet " << q;
        ASSERT_EQ(sa.edge[i][j].weight, sb.edge[i][j].weight)
            << "quartet " << q;
        ASSERT_EQ(sa.edge[i][j].marked, sb.edge[i][j].marked)
            << "quartet " << q;
        ASSERT_EQ(sa.edge[i][j].locked, sb.edge[i][j].locked)
            << "quartet " << q;
      }
    }
  }
  EXPECT_EQ(a.CountMarked(), b.CountMarked());
  EXPECT_EQ(a.CountLocked(), b.CountLocked());
}

TEST(PlannerTest, SingleThreadRunsInline) {
  PlanningOptions options;
  options.threads = 1;
  options.min_parallel_items = 1;
  Planner planner(options);
  EXPECT_EQ(planner.threads(), 1);
  EXPECT_FALSE(planner.WouldParallelize(1 << 20));
  int calls = 0;
  planner.ParallelFor(100, [&](int begin, int end) {
    ++calls;
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 100);
  });
  EXPECT_EQ(calls, 1);
}

TEST(PlannerTest, SmallLoopsStaySequentialEvenWithThreads) {
  PlanningOptions options;
  options.threads = 4;
  options.min_parallel_items = 1000;
  Planner planner(options);
  EXPECT_FALSE(planner.WouldParallelize(999));
  EXPECT_TRUE(planner.WouldParallelize(1000));
  int calls = 0;
  planner.ParallelFor(999, [&](int, int) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(PlannerTest, ParallelForCoversEveryIndexExactlyOnce) {
  Planner planner(ForceParallel(4));
  constexpr int kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  planner.ParallelFor(kCount, [&](int begin, int end) {
    ASSERT_LE(0, begin);
    ASSERT_LT(begin, end);
    ASSERT_LE(end, kCount);
    for (int i = begin; i < end; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << i;
  }
}

TEST(PlannerTest, EmptyLoopNeverInvokesTheBody) {
  Planner planner(ForceParallel(4));
  planner.ParallelFor(0, [](int, int) { FAIL() << "body on empty loop"; });
}

TEST(PlannerTest, ParallelForRethrowsBodyExceptions) {
  Planner planner(ForceParallel(4));
  EXPECT_THROW(planner.ParallelFor(10000,
                                   [](int begin, int) {
                                     if (begin == 0) {
                                       throw std::runtime_error("boom");
                                     }
                                   }),
               std::runtime_error);
}

TEST(PlanningTest, PlanAgreementGraphMatchesSequentialForAllOrders) {
  const Grid grid = MakeGrid(9, 7);
  const GridStats stats = RandomStats(grid, 11, 2000);
  for (const Policy policy : {Policy::kLPiB, Policy::kDiff}) {
    for (const MarkingOrder order :
         {MarkingOrder::kPaper, MarkingOrder::kIndexOrder,
          MarkingOrder::kWeightDescending}) {
      AgreementGraph sequential = AgreementGraph::Build(grid, stats, policy);
      sequential.RunDuplicateFreeMarking(order);
      Planner planner(ForceParallel(4));
      const AgreementGraph parallel = PlanAgreementGraph(
          grid, stats, policy, agreements::AgreementType::kReplicateR,
          /*duplicate_free=*/true, order, &planner, /*trace=*/nullptr);
      ExpectGraphsIdentical(grid, sequential, parallel);
    }
  }
}

TEST(PlanningTest, PlanAgreementGraphWithoutMarkingMatchesBuild) {
  const Grid grid = MakeGrid(6, 6);
  const GridStats stats = RandomStats(grid, 5, 900);
  const AgreementGraph sequential =
      AgreementGraph::Build(grid, stats, Policy::kLPiB);
  Planner planner(ForceParallel(3));
  const AgreementGraph parallel = PlanAgreementGraph(
      grid, stats, Policy::kLPiB, agreements::AgreementType::kReplicateR,
      /*duplicate_free=*/false, MarkingOrder::kPaper, &planner,
      /*trace=*/nullptr);
  ExpectGraphsIdentical(grid, sequential, parallel);
}

TEST(PlanningTest, CostHelpersMatchTheirSequentialCounterparts) {
  const Grid grid = MakeGrid(8, 8);
  const GridStats stats = RandomStats(grid, 29, 3000);
  Planner planner(ForceParallel(4));

  const std::vector<double> costs =
      PlanCellCosts(grid, stats, &planner, /*trace=*/nullptr);
  ASSERT_EQ(costs.size(), static_cast<size_t>(grid.num_cells()));
  for (CellId c = 0; c < grid.num_cells(); ++c) {
    EXPECT_EQ(costs[static_cast<size_t>(c)], stats.EstimatedCellCost(c)) << c;
  }

  AgreementGraph graph = AgreementGraph::Build(grid, stats, Policy::kLPiB);
  graph.RunDuplicateFreeMarking();
  const CostModel model(&grid, &stats);
  const std::vector<double> parallel_cand =
      PlanPerCellCandidates(model, graph, /*trace=*/nullptr);
  const std::vector<double> sequential_cand = model.PerCellCandidates(graph);
  ASSERT_EQ(parallel_cand.size(), sequential_cand.size());
  for (size_t c = 0; c < parallel_cand.size(); ++c) {
    EXPECT_EQ(parallel_cand[c], sequential_cand[c]) << c;
  }

  const CostPrediction parallel_pred =
      PlanPredict(model, graph, /*trace=*/nullptr);
  const CostPrediction sequential_pred = model.Predict(graph);
  EXPECT_EQ(parallel_pred.replicated_r, sequential_pred.replicated_r);
  EXPECT_EQ(parallel_pred.replicated_s, sequential_pred.replicated_s);
  EXPECT_EQ(parallel_pred.shuffled_tuples, sequential_pred.shuffled_tuples);
  EXPECT_EQ(parallel_pred.total_candidates, sequential_pred.total_candidates);
  EXPECT_EQ(parallel_pred.max_cell_candidates,
            sequential_pred.max_cell_candidates);

  const CellAssignment assignment =
      PlanLptAssignment(costs, /*workers=*/4, /*trace=*/nullptr);
  const CellAssignment direct = CellAssignment::Lpt(costs, 4);
  for (CellId c = 0; c < grid.num_cells(); ++c) {
    EXPECT_EQ(assignment.OwnerOf(c), direct.OwnerOf(c)) << c;
  }
}

TEST(PlanningTest, EmitsDriverTrackPlanningSpans) {
  const Grid grid = MakeGrid(9, 9);
  const GridStats stats = RandomStats(grid, 3, 1500);
  obs::TraceRecorder trace;
  Planner planner(ForceParallel(2));
  const AgreementGraph graph = PlanAgreementGraph(
      grid, stats, Policy::kLPiB, agreements::AgreementType::kReplicateR,
      /*duplicate_free=*/true, MarkingOrder::kPaper, &planner, &trace);
  const std::vector<double> costs = PlanCellCosts(grid, stats, &planner,
                                                  &trace);
  const CellAssignment assignment = PlanLptAssignment(costs, 4, &trace);
  (void)graph;
  (void)assignment;

  int pairs = 0, subgraphs = 0, marking = 0, cost_spans = 0, lpt = 0;
  for (const obs::TraceEvent& event : trace.Snapshot()) {
    const std::string name = event.name;
    if (name == "planning-pairs") ++pairs;
    if (name == "planning-subgraphs") ++subgraphs;
    if (name == "planning-marking") ++marking;
    if (name == "planning-costs") ++cost_spans;
    if (name == "planning-lpt") ++lpt;
    if (name.rfind("planning-", 0) == 0) {
      EXPECT_STREQ(event.category, "planning") << name;
      EXPECT_EQ(event.track, obs::kDriverTrack) << name;
    }
  }
  EXPECT_EQ(pairs, 1);
  EXPECT_EQ(subgraphs, 1);
  EXPECT_EQ(marking, 1);
  EXPECT_EQ(cost_spans, 1);
  EXPECT_EQ(lpt, 1);
}

TEST(PlanningTest, WeightDescendingMarkingRunsInParallel) {
  // Algorithm 1 sorts only the marked quartet's own 12 edges, for every
  // order, so kWeightDescending marks on the pool like the other orders
  // and still matches sequential marking.
  const Grid grid = MakeGrid(7, 7);
  const GridStats stats = RandomStats(grid, 41, 1200);
  obs::TraceRecorder trace;
  Planner planner(ForceParallel(4));
  const AgreementGraph parallel = PlanAgreementGraph(
      grid, stats, Policy::kDiff, agreements::AgreementType::kReplicateR,
      /*duplicate_free=*/true, MarkingOrder::kWeightDescending, &planner,
      &trace);
  AgreementGraph sequential = AgreementGraph::Build(grid, stats, Policy::kDiff);
  sequential.RunDuplicateFreeMarking(MarkingOrder::kWeightDescending);
  ExpectGraphsIdentical(grid, sequential, parallel);
  EXPECT_GT(parallel.CountMarked(), 0u);
}

}  // namespace
}  // namespace pasjoin::core
