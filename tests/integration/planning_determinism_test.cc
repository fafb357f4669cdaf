// Copyright 2026 The pasjoin Authors.
//
// Planning-determinism stress suite (label: stress): the parallel
// planning pipeline must produce BYTE-IDENTICAL artifacts to the 1-thread
// pipeline across the full matrix of replication policy x marking order x
// grid shape x thread count. Runs in the multicore-determinism CI lane
// under `ctest --repeat until-fail:3` with TSan, so any ordering
// sensitivity or data race in the planner shows up as a diff or a race
// report rather than a silently skewed plan.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "agreements/agreement_graph.h"
#include "common/rng.h"
#include "core/cost_model.h"
#include "core/lpt_scheduler.h"
#include "core/planning.h"
#include "grid/grid.h"
#include "grid/stats.h"

namespace pasjoin::core {
namespace {

using agreements::AgreementGraph;
using agreements::AgreementType;
using agreements::MarkingOrder;
using agreements::Policy;
using grid::CellId;
using grid::Grid;
using grid::GridStats;
using grid::QuartetId;

struct Shape {
  int nx;
  int ny;
};

Grid MakeGrid(const Shape& shape) {
  // The extra 0.5 keeps cell sides strictly above 2*eps, so the cell count
  // is exactly nx x ny.
  Rect mbr{0.0, 0.0, shape.nx + 0.5, shape.ny + 0.5};
  Result<Grid> grid = Grid::Make(mbr, 0.5, 2.0);
  EXPECT_TRUE(grid.ok());
  EXPECT_EQ(grid.value().nx(), shape.nx);
  EXPECT_EQ(grid.value().ny(), shape.ny);
  return grid.MoveValue();
}

GridStats SkewedStats(const Grid& grid, uint64_t seed, int points) {
  GridStats stats(&grid);
  Rng rng(seed);
  const Rect& mbr = grid.mbr();
  for (int i = 0; i < points; ++i) {
    // Squared coordinates cluster mass toward the origin corner, producing
    // skewed per-cell counts (the interesting case for marking and LPT).
    const double u = rng.NextUniform(0, 1);
    const double v = rng.NextUniform(0, 1);
    stats.Add(rng.NextBernoulli(0.5) ? Side::kR : Side::kS,
              Point{mbr.min_x + u * u * (mbr.max_x - mbr.min_x),
                    mbr.min_y + v * v * (mbr.max_y - mbr.min_y)});
  }
  return stats;
}

/// Field-by-field comparison - deliberately NOT memcmp, so a padding byte
/// can never mask (or fake) a real divergence.
void ExpectIdenticalGraphs(const Grid& grid, const AgreementGraph& expected,
                           const AgreementGraph& actual) {
  for (QuartetId q = 0; q < grid.num_quartets(); ++q) {
    const agreements::QuartetSubgraph& a = expected.Subgraph(q);
    const agreements::QuartetSubgraph& b = actual.Subgraph(q);
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        if (i == j) continue;
        ASSERT_EQ(a.type[i][j], b.type[i][j]) << "quartet " << q;
        ASSERT_EQ(a.edge[i][j].weight, b.edge[i][j].weight) << "quartet " << q;
        ASSERT_EQ(a.edge[i][j].marked, b.edge[i][j].marked) << "quartet " << q;
        ASSERT_EQ(a.edge[i][j].locked, b.edge[i][j].locked) << "quartet " << q;
      }
    }
  }
}

TEST(PlanningDeterminismTest, ParallelPlanningIsByteIdentical) {
  const Shape shapes[] = {{9, 9}, {17, 5}, {4, 21}};
  const Policy policies[] = {Policy::kLPiB, Policy::kDiff, Policy::kUniformR};
  const MarkingOrder orders[] = {MarkingOrder::kPaper,
                                 MarkingOrder::kIndexOrder,
                                 MarkingOrder::kWeightDescending};
  const int thread_counts[] = {2, 4, 8};

  for (const Shape& shape : shapes) {
    const Grid grid = MakeGrid(shape);
    const GridStats stats =
        SkewedStats(grid, 1000 + static_cast<uint64_t>(shape.nx), 4000);
    const CostModel model(&grid, &stats);

    for (const Policy policy : policies) {
      for (const MarkingOrder order : orders) {
        // 1-thread reference, through the same pipeline entry points.
        PlanningOptions reference_options;
        reference_options.threads = 1;
        Planner reference_planner(reference_options);
        const AgreementGraph reference_graph = PlanAgreementGraph(
            grid, stats, policy, AgreementType::kReplicateR,
            /*duplicate_free=*/true, order, &reference_planner,
            /*trace=*/nullptr);
        const std::vector<double> reference_costs =
            PlanCellCosts(grid, stats, &reference_planner, /*trace=*/nullptr);
        const std::vector<double> reference_cand = PlanPerCellCandidates(
            model, reference_graph, /*trace=*/nullptr);
        const CostPrediction reference_pred = PlanPredict(
            model, reference_graph, /*trace=*/nullptr);
        const CellAssignment reference_lpt =
            PlanLptAssignment(reference_costs, /*workers=*/6,
                              /*trace=*/nullptr);

        // The reference pipeline must itself match the plain sequential
        // API (the planner is a refactoring, not a new algorithm).
        AgreementGraph direct = AgreementGraph::Build(grid, stats, policy);
        direct.RunDuplicateFreeMarking(order);
        ExpectIdenticalGraphs(grid, direct, reference_graph);

        for (const int threads : thread_counts) {
          PlanningOptions options;
          options.threads = threads;
          options.min_parallel_items = 1;  // Always take the parallel path.
          Planner planner(options);
          const AgreementGraph graph = PlanAgreementGraph(
              grid, stats, policy, AgreementType::kReplicateR,
              /*duplicate_free=*/true, order, &planner, /*trace=*/nullptr);
          ExpectIdenticalGraphs(grid, reference_graph, graph);

          const std::vector<double> costs =
              PlanCellCosts(grid, stats, &planner, /*trace=*/nullptr);
          ASSERT_EQ(costs.size(), reference_costs.size());
          for (size_t c = 0; c < costs.size(); ++c) {
            ASSERT_EQ(costs[c], reference_costs[c]) << "cell " << c;
          }

          const std::vector<double> cand = PlanPerCellCandidates(
              model, graph, /*trace=*/nullptr);
          ASSERT_EQ(cand.size(), reference_cand.size());
          for (size_t c = 0; c < cand.size(); ++c) {
            ASSERT_EQ(cand[c], reference_cand[c]) << "cell " << c;
          }

          const CostPrediction pred =
              PlanPredict(model, graph, /*trace=*/nullptr);
          ASSERT_EQ(pred.replicated_r, reference_pred.replicated_r);
          ASSERT_EQ(pred.replicated_s, reference_pred.replicated_s);
          ASSERT_EQ(pred.shuffled_tuples, reference_pred.shuffled_tuples);
          ASSERT_EQ(pred.total_candidates, reference_pred.total_candidates);
          ASSERT_EQ(pred.max_cell_candidates,
                    reference_pred.max_cell_candidates);

          const CellAssignment lpt =
              PlanLptAssignment(costs, /*workers=*/6, /*trace=*/nullptr);
          for (CellId c = 0; c < grid.num_cells(); ++c) {
            ASSERT_EQ(lpt.OwnerOf(c), reference_lpt.OwnerOf(c)) << "cell "
                                                                << c;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace pasjoin::core
