// Copyright 2026 The pasjoin Authors.
#include "grid/grid.h"

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace pasjoin::grid {
namespace {

Grid MakeGrid(double w, double h, double eps, double factor) {
  Result<Grid> g = Grid::Make(Rect{0, 0, w, h}, eps, factor);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return g.MoveValue();
}

TEST(GridMakeTest, RejectsBadArguments) {
  EXPECT_FALSE(Grid::Make(Rect{0, 0, 10, 10}, 0.0).ok());
  EXPECT_FALSE(Grid::Make(Rect{0, 0, 10, 10}, -1.0).ok());
  EXPECT_FALSE(Grid::Make(Rect{0, 0, 0, 10}, 1.0).ok());
  EXPECT_FALSE(Grid::Make(Rect{0, 0, 10, 10}, 1.0, 1.5).ok());
  // MBR smaller than 2*eps in one axis cannot host a valid grid.
  EXPECT_FALSE(Grid::Make(Rect{0, 0, 1.0, 10}, 1.0).ok());
}

TEST(GridMakeTest, RejectsNonFiniteArguments) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double eps : {inf, -inf, nan}) {
    for (const Result<Grid>& g :
         {Grid::Make(Rect{0, 0, 10, 10}, eps),
          Grid::MakeForBaseline(Rect{0, 0, 10, 10}, eps, 1.0)}) {
      ASSERT_FALSE(g.ok()) << eps;
      EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(g.status().message(), "eps must be positive and finite");
    }
  }
  EXPECT_FALSE(Grid::Make(Rect{0, 0, 10, 10}, 1.0, nan).ok());
  EXPECT_FALSE(Grid::MakeForBaseline(Rect{0, 0, 10, 10}, 1.0, nan).ok());
  EXPECT_FALSE(Grid::Make(Rect{0, 0, inf, 10}, 1.0).ok());
}

TEST(GridMakeTest, RejectsMoreCellsThanCellIdCanNumber) {
  // 499,999^2 cells: num_cells() would overflow int.
  const Result<Grid> fine = Grid::Make(Rect{0, 0, 1, 1}, 1e-6, 2.0);
  ASSERT_FALSE(fine.ok());
  EXPECT_EQ(fine.status().code(), StatusCode::kInvalidArgument);
  // 5e11 cells per axis: the int cast used to wrap into a 1x1 grid.
  for (const Result<Grid>& g : {Grid::Make(Rect{0, 0, 1, 1}, 1e-12, 2.0),
                                Grid::MakeForBaseline(Rect{0, 0, 1, 1}, 1e-12,
                                                      2.0)}) {
    ASSERT_FALSE(g.ok());
    EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(g.status().message().find("CellId"), std::string::npos)
        << g.status().ToString();
  }
  // One row of 2^31 - 1 cells still fits; its cell count is representable.
  const Result<Grid> widest = Grid::MakeForBaseline(
      Rect{0, 0, 2147483647.5, 1}, 0.5, 2.0);
  ASSERT_TRUE(widest.ok()) << widest.status().ToString();
  EXPECT_EQ(widest.value().num_cells(), 2147483647);
  EXPECT_FALSE(
      Grid::MakeForBaseline(Rect{0, 0, 2147483648.5, 1}, 0.5, 2.0).ok());
}

TEST(GridMakeTest, CellSidesStrictlyExceedTwoEps) {
  // 10 / (2*1) = 5 cells would give sides == 2*eps exactly; the builder must
  // shrink to keep l > 2*eps (Section 4.1).
  const Grid g = MakeGrid(10, 10, 1.0, 2.0);
  EXPECT_GT(g.cell_width(), 2.0);
  EXPECT_GT(g.cell_height(), 2.0);
  EXPECT_EQ(g.nx(), 4);
  EXPECT_EQ(g.ny(), 4);
}

TEST(GridMakeTest, ResolutionFactorScalesCells) {
  const Grid g2 = MakeGrid(30, 30, 1.0, 2.0);
  const Grid g5 = MakeGrid(30, 30, 1.0, 5.0);
  EXPECT_GT(g5.cell_width(), g2.cell_width());
  EXPECT_EQ(g5.nx(), 6);
  // 30 / (2*eps) = 15 cells would make sides exactly 2*eps; the builder
  // shrinks to 14 to keep them strictly larger.
  EXPECT_EQ(g2.nx(), 14);
}

TEST(GridMakeTest, BaselineFactoryAllowsEpsCells) {
  Result<Grid> g = Grid::MakeForBaseline(Rect{0, 0, 10, 10}, 1.0, 1.0);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().nx(), 10);
  EXPECT_DOUBLE_EQ(g.value().cell_width(), 1.0);
  EXPECT_FALSE(Grid::MakeForBaseline(Rect{0, 0, 10, 10}, 1.0, -1.0).ok());
}

TEST(GridTest, CellIdRoundTrip) {
  const Grid g = MakeGrid(21, 13, 1.0, 2.0);
  for (int cy = 0; cy < g.ny(); ++cy) {
    for (int cx = 0; cx < g.nx(); ++cx) {
      const CellId id = g.CellIdOf(cx, cy);
      EXPECT_EQ(g.CellX(id), cx);
      EXPECT_EQ(g.CellY(id), cy);
    }
  }
  EXPECT_EQ(g.num_cells(), g.nx() * g.ny());
}

TEST(GridTest, LocateMatchesCellRect) {
  const Grid g = MakeGrid(21, 13, 1.0, 2.3);
  for (double x = 0.1; x < 21; x += 0.71) {
    for (double y = 0.1; y < 13; y += 0.53) {
      const Point p{x, y};
      const CellId id = g.Locate(p);
      EXPECT_TRUE(g.CellRect(id).Contains(p))
          << "point (" << x << "," << y << ") cell " << id;
    }
  }
}

TEST(GridTest, LocateClampsOutsidePoints) {
  const Grid g = MakeGrid(10, 10, 1.0, 2.0);
  EXPECT_EQ(g.Locate(Point{-5, -5}), g.CellIdOf(0, 0));
  EXPECT_EQ(g.Locate(Point{100, 100}), g.CellIdOf(g.nx() - 1, g.ny() - 1));
  // Points exactly on the max border belong to the last cell.
  EXPECT_EQ(g.Locate(Point{10, 10}), g.CellIdOf(g.nx() - 1, g.ny() - 1));
}

TEST(GridTest, LocateClampsNonFiniteAndHugeCoordinates) {
  // Sampling locates points before the engine validates them.
  const Grid g = MakeGrid(10, 10, 1.0, 2.0);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(g.Locate(Point{1e300, -1e300}), g.CellIdOf(g.nx() - 1, 0));
  EXPECT_EQ(g.Locate(Point{-inf, inf}), g.CellIdOf(0, g.ny() - 1));
  EXPECT_EQ(g.Locate(Point{nan, nan}), g.CellIdOf(0, 0));
}

TEST(GridTest, CellsCoveringClampsToTheGrid) {
  const Grid g = MakeGrid(10, 10, 1.0, 2.0);  // 4 x 4 cells of 2.5
  const CellRange inner = g.CellsCovering(Rect{2.6, 0.1, 7.4, 5.0});
  EXPECT_EQ(inner.x_lo, 1);
  EXPECT_EQ(inner.x_hi, 2);
  EXPECT_EQ(inner.y_lo, 0);
  EXPECT_EQ(inner.y_hi, 2);
  const double inf = std::numeric_limits<double>::infinity();
  for (const Rect& all : {Rect{-1e12, -1e12, 1e12, 1e12},
                          Rect{-inf, -inf, inf, inf}}) {
    const CellRange r = g.CellsCovering(all);
    EXPECT_EQ(r.x_lo, 0);
    EXPECT_EQ(r.y_lo, 0);
    EXPECT_EQ(r.x_hi, g.nx() - 1);
    EXPECT_EQ(r.y_hi, g.ny() - 1);
  }
}

TEST(GridTest, QuartetIdsCoverInteriorCornersOnly) {
  const Grid g = MakeGrid(21, 13, 1.0, 2.0);
  EXPECT_EQ(g.num_quartets(), (g.nx() - 1) * (g.ny() - 1));
  EXPECT_EQ(g.QuartetIdOf(0, 1), kInvalidId);
  EXPECT_EQ(g.QuartetIdOf(1, 0), kInvalidId);
  EXPECT_EQ(g.QuartetIdOf(g.nx(), 1), kInvalidId);
  int seen = 0;
  for (int qx = 1; qx < g.nx(); ++qx) {
    for (int qy = 1; qy < g.ny(); ++qy) {
      const QuartetId q = g.QuartetIdOf(qx, qy);
      ASSERT_NE(q, kInvalidId);
      EXPECT_EQ(g.QuartetX(q), qx);
      EXPECT_EQ(g.QuartetY(q), qy);
      ++seen;
    }
  }
  EXPECT_EQ(seen, g.num_quartets());
}

TEST(GridTest, QuartetGeometry) {
  const Grid g = MakeGrid(10, 10, 1.0, 2.0);  // 4x4 cells of 2.5
  const QuartetId q = g.QuartetIdOf(2, 3);
  const Point ref = g.QuartetRefPoint(q);
  EXPECT_DOUBLE_EQ(ref.x, 5.0);
  EXPECT_DOUBLE_EQ(ref.y, 7.5);
  EXPECT_EQ(g.QuartetCellId(q, kSW), g.CellIdOf(1, 2));
  EXPECT_EQ(g.QuartetCellId(q, kSE), g.CellIdOf(2, 2));
  EXPECT_EQ(g.QuartetCellId(q, kNW), g.CellIdOf(1, 3));
  EXPECT_EQ(g.QuartetCellId(q, kNE), g.CellIdOf(2, 3));
  // Every member cell touches the reference point.
  for (int which = 0; which < 4; ++which) {
    const Rect rect = g.CellRect(g.QuartetCellId(q, which));
    EXPECT_DOUBLE_EQ(MinDist(ref, rect), 0.0);
    EXPECT_EQ(g.PositionInQuartet(q, g.QuartetCellId(q, which)), which);
  }
  EXPECT_EQ(g.PositionInQuartet(q, g.CellIdOf(0, 0)), -1);
}

TEST(QuartetHelpersTest, DiagonalAndSideAdjacency) {
  EXPECT_EQ(DiagonalOf(kSW), kNE);
  EXPECT_EQ(DiagonalOf(kSE), kNW);
  EXPECT_EQ(DiagonalOf(kNW), kSE);
  EXPECT_EQ(DiagonalOf(kNE), kSW);
  int a, b;
  SideAdjacentOf(kSW, &a, &b);
  EXPECT_EQ(a, kSE);
  EXPECT_EQ(b, kNW);
  SideAdjacentOf(kNE, &a, &b);
  EXPECT_EQ(a, kNW);
  EXPECT_EQ(b, kSE);
}

TEST(ClassifyAreaTest, InteriorPointIsNoReplication) {
  const Grid g = MakeGrid(10, 10, 1.0, 2.0);  // cells 2.5
  // Center of cell (1,1): more than eps from every border.
  const Point p{3.75, 3.75};
  const AreaInfo info = g.ClassifyArea(p, g.Locate(p));
  EXPECT_EQ(info.kind, AreaKind::kNone);
}

TEST(ClassifyAreaTest, PlainBandDetectsSingleBorder) {
  const Grid g = MakeGrid(10, 10, 1.0, 2.0);
  // Cell (1,1) spans [2.5,5.0]^2; x near its left border, y central.
  const Point p{2.7, 3.75};
  const AreaInfo info = g.ClassifyArea(p, g.Locate(p));
  EXPECT_EQ(info.kind, AreaKind::kPlain);
  EXPECT_EQ(info.dx, -1);
  EXPECT_EQ(info.dy, 0);
}

TEST(ClassifyAreaTest, CornerSquareDetectsQuartet) {
  const Grid g = MakeGrid(10, 10, 1.0, 2.0);
  // Cell (1,1); near right and top borders -> quartet at corner (2,2).
  const Point p{4.2, 4.8};
  const AreaInfo info = g.ClassifyArea(p, g.Locate(p));
  EXPECT_EQ(info.kind, AreaKind::kCorner);
  EXPECT_EQ(info.dx, +1);
  EXPECT_EQ(info.dy, +1);
  EXPECT_EQ(info.quartet, g.QuartetIdOf(2, 2));
}

TEST(ClassifyAreaTest, GridBoundaryNeverTriggersReplication) {
  const Grid g = MakeGrid(10, 10, 1.0, 2.0);
  // Bottom-left cell, near the grid's outer borders only.
  const Point p{0.3, 0.3};
  const AreaInfo info = g.ClassifyArea(p, g.Locate(p));
  EXPECT_EQ(info.kind, AreaKind::kNone);
  // Near outer bottom border + internal right border -> plain, not corner.
  const Point p2{2.4, 0.3};
  const AreaInfo info2 = g.ClassifyArea(p2, g.Locate(p2));
  EXPECT_EQ(info2.kind, AreaKind::kPlain);
  EXPECT_EQ(info2.dx, +1);
  EXPECT_EQ(info2.dy, 0);
}

TEST(ClassifyAreaTest, BandWidthIsExactlyEps) {
  const Grid g = MakeGrid(10, 10, 1.0, 2.0);
  // Exactly eps from the left border of cell (1,1): inclusive.
  const Point on_band{2.5 + 1.0, 3.75};
  EXPECT_EQ(g.ClassifyArea(on_band, g.Locate(on_band)).kind, AreaKind::kPlain);
  const Point off_band{2.5 + 1.0001, 3.75};
  EXPECT_EQ(g.ClassifyArea(off_band, g.Locate(off_band)).kind, AreaKind::kNone);
}

TEST(GridTest, SingleRowGridHasNoQuartets) {
  Result<Grid> g = Grid::Make(Rect{0, 0, 30, 2.5}, 1.0, 2.0);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().ny(), 1);
  EXPECT_EQ(g.value().num_quartets(), 0);
}

TEST(GridTest, ToStringMentionsShape) {
  const Grid g = MakeGrid(10, 10, 1.0, 2.0);
  EXPECT_NE(g.ToString().find("grid 4x4"), std::string::npos);
}

/// True when cell `c` holds a point within eps of `p`, checked against the
/// cell's closed rectangle (`closed`) or against the half-open cell that
/// Grid::Locate fills, whose max edges belong to the next cell except on the
/// last row/column.
bool CellWithinEps(const Grid& g, CellId c, const Point& p, bool closed) {
  const Rect rect = g.CellRect(c);
  const double d2 = SquaredMinDist(p, rect);
  const double eps2 = g.eps() * g.eps();
  if (d2 < eps2 || (closed && d2 == eps2)) return true;
  if (d2 > eps2) return false;
  // Exactly eps away: only if the nearest point is not on an open edge.
  const bool open_x = g.CellX(c) < g.nx() - 1 &&
                      std::clamp(p.x, rect.min_x, rect.max_x) == rect.max_x;
  const bool open_y = g.CellY(c) < g.ny() - 1 &&
                      std::clamp(p.y, rect.min_y, rect.max_y) == rect.max_y;
  return !open_x && !open_y;
}

TEST(CellsWithinEpsTest, HugeEpsReachesEveryCellWithoutOverflow) {
  // eps = 1e12 on a 1 x 1 grid: the eps box spans far beyond int range.
  Result<Grid> one = Grid::MakeForBaseline(Rect{0, 0, 1, 1}, 1e12, 2.0);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(CellsWithinEps(one.value(), Point{0.5, 0.5}).size(), 1u);
  // A coarse eps on a finer grid lists every cell once, native first.
  Result<Grid> fine = Grid::MakeForBaseline(Rect{0, 0, 1, 1}, 1e12, 1e-13);
  ASSERT_TRUE(fine.ok()) << fine.status().ToString();
  const Grid& g = fine.value();
  ASSERT_EQ(g.num_cells(), 100);
  const std::vector<CellId> cells =
      CellsWithinEps(g, Point{0.55, 0.25}).ToVector();
  EXPECT_EQ(cells.size(), 100u);
  EXPECT_EQ(cells.front(), g.Locate(Point{0.55, 0.25}));
}

TEST(CellsWithinEpsTest, MatchesBruteForceMinDistOnEpsAndTwoEpsGrids) {
  // Brute force over every cell: CellsWithinEps must return every cell that
  // can hold a point within eps (else a join partner is missed) and no cell
  // whose MINDIST exceeds eps; a cell exactly eps away across an edge
  // Locate gives to its neighbor may go either way.
  const double eps = 0.5;
  const Rect mbr{0, 0, 6.0, 4.5};
  for (const double factor : {1.0, 2.0}) {
    Result<Grid> made = Grid::MakeForBaseline(mbr, eps, factor);
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    const Grid& g = made.value();
    ASSERT_DOUBLE_EQ(g.cell_width(), factor * eps);
    // Points on every cell edge and corner, on the eps bands around them,
    // on the MBR boundary, and at random.
    std::vector<Point> points;
    for (int cx = 0; cx <= g.nx(); ++cx) {
      for (int cy = 0; cy <= g.ny(); ++cy) {
        const double x = mbr.min_x + cx * g.cell_width();
        const double y = mbr.min_y + cy * g.cell_height();
        for (const double dx : {0.0, -eps, eps, 0.5 * eps}) {
          for (const double dy : {0.0, -eps, eps, 0.25 * eps}) {
            points.push_back(Point{std::clamp(x + dx, mbr.min_x, mbr.max_x),
                                   std::clamp(y + dy, mbr.min_y, mbr.max_y)});
          }
        }
      }
    }
    Rng rng(17);
    for (int i = 0; i < 500; ++i) {
      points.push_back(Point{rng.NextUniform(mbr.min_x, mbr.max_x),
                             rng.NextUniform(mbr.min_y, mbr.max_y)});
    }
    for (const Point& p : points) {
      const std::vector<CellId> cells = CellsWithinEps(g, p).ToVector();
      ASSERT_FALSE(cells.empty());
      EXPECT_EQ(cells.front(), g.Locate(p)) << "native cell first";
      for (CellId c = 0; c < g.num_cells(); ++c) {
        const auto n = std::count(cells.begin(), cells.end(), c);
        EXPECT_LE(n, 1) << "cell " << c << " listed twice";
        if (CellWithinEps(g, c, p, /*closed=*/false)) {
          EXPECT_EQ(n, 1) << "factor " << factor << " point (" << p.x << ", "
                          << p.y << ") misses cell " << c;
        }
        if (n == 1 && c != cells.front()) {
          EXPECT_TRUE(CellWithinEps(g, c, p, /*closed=*/true))
              << "factor " << factor << " point (" << p.x << ", " << p.y
              << ") lists cell " << c << " beyond eps";
        }
      }
    }
  }
}

}  // namespace
}  // namespace pasjoin::grid
