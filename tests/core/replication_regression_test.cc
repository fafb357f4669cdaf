// Copyright 2026 The pasjoin Authors.
//
// Regression tests for concrete replication scenarios that once failed (see
// DESIGN.md 5.1, "resolved pseudocode ambiguities"). Each test pins the
// exact graph configuration and point pair, so a behavioural regression
// fails here with full context rather than in a random property sweep.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "agreements/agreement_graph.h"
#include "core/replication.h"
#include "grid/grid.h"
#include "grid/stats.h"
#include "test_util.h"

namespace pasjoin {
namespace {

using agreements::AgreementGraph;
using agreements::AgreementType;
using agreements::Policy;
using core::ReplicationAssigner;
using grid::Grid;
using grid::GridStats;

constexpr AgreementType kR = AgreementType::kReplicateR;
constexpr AgreementType kS = AgreementType::kReplicateS;

/// The own-quartet supplementary-area case: a 2x2 grid (cells 2.1, eps 1)
/// with types SW-SE:R, NW-NE:S, SW-NW:S, SE-NE:R, SW-NE:R, SE-NW:R (combo 6
/// of the exhaustive sweep). Algorithm 1 marks e[NW->SW] (triangle NW,SW,NE)
/// and e[SE->NW]. An R point in SW's merged duplicate-prone square but
/// outside the ref-point quadrant pairs with an S point in NW's square; the
/// S point is redirected to NE, so the R point must follow via SupAr *on its
/// own quartet* - the step Algorithm 2's pseudocode does not list.
TEST(ReplicationRegressionTest, OwnQuartetSupplementaryArea) {
  const double eps = 1.0;
  const Grid grid = Grid::Make(Rect{0, 0, 4.2, 4.2}, eps, 2.0).MoveValue();
  const grid::QuartetId q = grid.QuartetIdOf(1, 1);
  GridStats stats(&grid);
  AgreementGraph graph = AgreementGraph::Build(grid, stats, Policy::kLPiB);
  graph.SetHorizontalPairType(0, 0, kR);   // SW-SE
  graph.SetHorizontalPairType(0, 1, kS);   // NW-NE
  graph.SetVerticalPairType(0, 0, kS);     // SW-NW
  graph.SetVerticalPairType(1, 0, kR);     // SE-NE
  graph.SetDiagonalPairType(q, 0, kR);     // SW-NE
  graph.SetDiagonalPairType(q, 1, kR);     // SE-NW
  // Deterministic weights reproducing the original failure's marking order.
  agreements::QuartetSubgraph* sub = graph.MutableSubgraph(q);
  const float weights[4][4] = {{0, 79, 22, 46},
                               {78, 0, 51, 33},
                               {24, 25, 0, 74},
                               {67, 84, 69, 0}};
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      if (i != j) sub->edge[i][j].weight = weights[i][j];
    }
  }
  graph.RunDuplicateFreeMarking();

  // The marking that triggers the scenario.
  ASSERT_TRUE(sub->edge[grid::kNW][grid::kSW].marked);
  ASSERT_FALSE(sub->edge[grid::kNW][grid::kNE].marked);

  const ReplicationAssigner assigner(&grid, &graph);
  // r in SW's merged square, beyond eps of the reference point (2.1, 2.1).
  const Point r_pt{1.34, 1.34};
  // s in NW's merged square, within eps of r.
  const Point s_pt{1.1, 2.1};
  ASSERT_LE(Distance(r_pt, s_pt), eps);

  const auto r_cells = assigner.Assign(r_pt, Side::kR).ToVector();
  const auto s_cells = assigner.Assign(s_pt, Side::kS).ToVector();
  // s is redirected to NE (its side agreement NW-NE is type S, unmarked).
  const grid::CellId ne = grid.QuartetCellId(q, grid::kNE);
  EXPECT_TRUE(std::count(s_cells.begin(), s_cells.end(), ne) == 1);
  // r must follow s into NE via the own-quartet supplementary step.
  EXPECT_TRUE(std::count(r_cells.begin(), r_cells.end(), ne) == 1)
      << "own-quartet SupAr regression: r not replicated to NE";
  // And they must meet in exactly one common cell.
  int common = 0;
  for (const auto c : r_cells) {
    common += static_cast<int>(std::count(s_cells.begin(), s_cells.end(), c));
  }
  EXPECT_EQ(common, 1);
}

/// A plain-band pair across a border whose agreement matches the R side:
/// only the R point crosses, and the pair is found exactly once.
TEST(ReplicationRegressionTest, PlainBandSingleCrossing) {
  const double eps = 1.0;
  const Grid grid = Grid::Make(Rect{0, 0, 12.9, 4.2}, eps, 2.0).MoveValue();
  ASSERT_GE(grid.nx(), 3);
  GridStats stats(&grid);
  AgreementGraph graph = AgreementGraph::Build(grid, stats, Policy::kLPiB);
  for (int cx = 0; cx + 1 < grid.nx(); ++cx) {
    graph.SetHorizontalPairType(cx, 0, kR);
    graph.SetHorizontalPairType(cx, 1, kR);
  }
  graph.RunDuplicateFreeMarking();
  const ReplicationAssigner assigner(&grid, &graph);

  const double border_x = grid.cell_width();  // first vertical grid line
  const double mid_y = grid.cell_height();    // on the horizontal mid line? no:
  // Use a y far from horizontal borders: center of the bottom row.
  const double y = grid.cell_height() / 2.0;
  const Point r_pt{border_x - 0.4, y};
  const Point s_pt{border_x + 0.4, y};
  const auto r_cells = assigner.Assign(r_pt, Side::kR).ToVector();
  const auto s_cells = assigner.Assign(s_pt, Side::kS).ToVector();
  EXPECT_EQ(r_cells.size(), 2u);  // native + across the border
  EXPECT_EQ(s_cells.size(), 1u);  // agreement type R: s stays home
  int common = 0;
  for (const auto c : r_cells) {
    common += static_cast<int>(std::count(s_cells.begin(), s_cells.end(), c));
  }
  EXPECT_EQ(common, 1);
  (void)mid_y;
}

/// Points exactly on a quartet reference point and on cell borders: still
/// assigned somewhere, and pairs with themselves found exactly once.
TEST(ReplicationRegressionTest, DegenerateOnBorderPositions) {
  const double eps = 1.0;
  const Grid grid = Grid::Make(Rect{0, 0, 6.3, 6.3}, eps, 2.0).MoveValue();
  GridStats stats(&grid);
  for (uint64_t seed = 0; seed < 8; ++seed) {
    AgreementGraph graph = AgreementGraph::Build(grid, stats, Policy::kLPiB);
    graph.RandomizeForTesting(seed);
    graph.RunDuplicateFreeMarking();
    const ReplicationAssigner assigner(&grid, &graph);
    const Point ref = grid.QuartetRefPoint(grid.QuartetIdOf(1, 1));
    const std::vector<Point> spots = {
        ref,
        {ref.x, ref.y - eps},
        {ref.x - eps, ref.y},
        {ref.x + eps, ref.y + eps},
        {grid.cell_width(), grid.cell_height() / 2},  // on a vertical border
    };
    for (const Point& p : spots) {
      const auto r_cells = assigner.Assign(p, Side::kR).ToVector();
      const auto s_cells = assigner.Assign(p, Side::kS).ToVector();
      ASSERT_FALSE(r_cells.empty());
      ASSERT_FALSE(s_cells.empty());
      // The coincident pair (distance 0) must be discoverable exactly once.
      int common = 0;
      for (const auto c : r_cells) {
        common +=
            static_cast<int>(std::count(s_cells.begin(), s_cells.end(), c));
      }
      EXPECT_EQ(common, 1) << "seed " << seed << " point (" << p.x << ","
                           << p.y << ")";
    }
  }
}

/// The assigner compiles the graph at construction and keeps no reference
/// to it or to the grid: destroying both leaves every partition list
/// unchanged, order included.
TEST(ReplicationRegressionTest, AssignerOutlivesItsGraph) {
  const double eps = 1.0;
  auto grid = std::make_unique<Grid>(
      Grid::Make(Rect{0, 0, 8.4, 6.3}, eps, 2.0).MoveValue());
  ASSERT_EQ(grid->nx(), 4);
  ASSERT_EQ(grid->ny(), 3);
  const GridStats stats(grid.get());
  auto graph = std::make_unique<AgreementGraph>(
      AgreementGraph::Build(*grid, stats, Policy::kLPiB));
  graph->RandomizeForTesting(11);
  graph->RunDuplicateFreeMarking();
  const ReplicationAssigner assigner(grid.get(), graph.get());

  // A lattice of sixths of a cell, whose first line in each cell is the
  // cell's border (every quartet corner lies on it), plus the points eps
  // away from each corner along both axes and both diagonals.
  const double w = grid->cell_width();
  const double h = grid->cell_height();
  std::vector<Point> probes;
  for (int cy = 0; cy <= grid->ny(); ++cy) {
    for (int ky = 0; ky < 6; ++ky) {
      for (int cx = 0; cx <= grid->nx(); ++cx) {
        for (int kx = 0; kx < 6; ++kx) {
          probes.push_back({cx * w + kx * (w / 6), cy * h + ky * (h / 6)});
        }
      }
    }
  }
  for (int qy = 1; qy < grid->ny(); ++qy) {
    for (int qx = 1; qx < grid->nx(); ++qx) {
      const Point ref = grid->CornerPoint(qx, qy);
      for (const int dy : {-1, 0, 1}) {
        for (const int dx : {-1, 0, 1}) {
          probes.push_back({ref.x + dx * eps, ref.y + dy * eps});
        }
      }
    }
  }
  std::vector<std::vector<grid::CellId>> before;
  for (const Point& p : probes) {
    before.push_back(assigner.Assign(p, Side::kR).ToVector());
    before.push_back(assigner.Assign(p, Side::kS).ToVector());
  }

  graph.reset();
  grid.reset();
  size_t n = 0;
  for (const Point& p : probes) {
    EXPECT_EQ(assigner.Assign(p, Side::kR).ToVector(), before[n++])
        << "R point (" << p.x << "," << p.y << ")";
    EXPECT_EQ(assigner.Assign(p, Side::kS).ToVector(), before[n++])
        << "S point (" << p.x << "," << p.y << ")";
  }
}

}  // namespace
}  // namespace pasjoin
