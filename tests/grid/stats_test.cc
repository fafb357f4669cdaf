// Copyright 2026 The pasjoin Authors.
#include "grid/stats.h"

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/generators.h"
#include "test_util.h"

namespace pasjoin::grid {
namespace {

Grid MakeGrid() {
  // 4x4 cells of side 2.5, eps 1.
  return Grid::Make(Rect{0, 0, 10, 10}, 1.0, 2.0).MoveValue();
}

TEST(DirIndexTest, RoundTripsAllEightDirections) {
  bool seen[8] = {};
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      if (dx == 0 && dy == 0) continue;
      const int dir = DirIndex(dx, dy);
      ASSERT_GE(dir, 0);
      ASSERT_LT(dir, 8);
      EXPECT_FALSE(seen[dir]) << "collision at dir " << dir;
      seen[dir] = true;
      int rdx, rdy;
      DirOffset(dir, &rdx, &rdy);
      EXPECT_EQ(rdx, dx);
      EXPECT_EQ(rdy, dy);
    }
  }
}

TEST(GridStatsTest, TotalsPerCellAndSide) {
  const Grid g = MakeGrid();
  GridStats stats(&g);
  stats.Add(Side::kR, Point{1.0, 1.0});
  stats.Add(Side::kR, Point{1.2, 1.2});
  stats.Add(Side::kS, Point{1.0, 1.0});
  stats.Add(Side::kS, Point{6.0, 6.0});
  const CellId c00 = g.CellIdOf(0, 0);
  const CellId c22 = g.CellIdOf(2, 2);
  EXPECT_EQ(stats.CellCount(Side::kR, c00), 2u);
  EXPECT_EQ(stats.CellCount(Side::kS, c00), 1u);
  EXPECT_EQ(stats.CellCount(Side::kR, c22), 0u);
  EXPECT_EQ(stats.CellCount(Side::kS, c22), 1u);
  EXPECT_EQ(stats.SampleSize(Side::kR), 2u);
  EXPECT_EQ(stats.SampleSize(Side::kS), 2u);
}

TEST(GridStatsTest, BandCountsMatchMinDistSemantics) {
  const Grid g = MakeGrid();
  GridStats stats(&g);
  // Point in cell (1,1) = [2.5,5.0]^2 near its right border only.
  stats.Add(Side::kR, Point{4.2, 3.75});
  const CellId c = g.CellIdOf(1, 1);
  EXPECT_EQ(stats.BandCount(Side::kR, c, DirIndex(1, 0)), 1u);
  EXPECT_EQ(stats.BandCount(Side::kR, c, DirIndex(-1, 0)), 0u);
  EXPECT_EQ(stats.BandCount(Side::kR, c, DirIndex(0, 1)), 0u);
  EXPECT_EQ(stats.BandCount(Side::kR, c, DirIndex(1, 1)), 0u);

  // Point near the top-right corner of cell (1,1), within eps of the corner:
  // bands toward E, N and NE.
  stats.Add(Side::kS, Point{4.6, 4.6});
  EXPECT_EQ(stats.BandCount(Side::kS, c, DirIndex(1, 0)), 1u);
  EXPECT_EQ(stats.BandCount(Side::kS, c, DirIndex(0, 1)), 1u);
  EXPECT_EQ(stats.BandCount(Side::kS, c, DirIndex(1, 1)), 1u);
  EXPECT_EQ(stats.BandCount(Side::kS, c, DirIndex(-1, 1)), 0u);

  // Near two borders but farther than eps from the corner point: no
  // diagonal band.
  stats.Add(Side::kS, Point{4.2, 4.2});  // dist to corner (5,5) ~ 1.13 > 1
  EXPECT_EQ(stats.BandCount(Side::kS, c, DirIndex(1, 1)), 1u);  // unchanged
  EXPECT_EQ(stats.BandCount(Side::kS, c, DirIndex(1, 0)), 2u);
}

TEST(GridStatsTest, GridBoundaryProducesNoBands) {
  const Grid g = MakeGrid();
  GridStats stats(&g);
  stats.Add(Side::kR, Point{0.1, 0.1});  // bottom-left cell corner of grid
  const CellId c = g.CellIdOf(0, 0);
  for (int dir = 0; dir < 8; ++dir) {
    EXPECT_EQ(stats.BandCount(Side::kR, c, dir), 0u) << "dir " << dir;
  }
}

TEST(GridStatsTest, BernoulliSamplingIsDeterministicAndSetsScale) {
  const Grid g = MakeGrid();
  Dataset data;
  data.name = "d";
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    data.tuples.push_back(
        Tuple{i, Point{rng.NextUniform(0, 10), rng.NextUniform(0, 10)}, ""});
  }
  GridStats a(&g), b(&g);
  const size_t na = a.AddSample(Side::kR, data, 0.1, 77);
  const size_t nb = b.AddSample(Side::kR, data, 0.1, 77);
  EXPECT_EQ(na, nb);
  EXPECT_NEAR(static_cast<double>(na), 1000.0, 120.0);
  for (CellId c = 0; c < g.num_cells(); ++c) {
    EXPECT_EQ(a.CellCount(Side::kR, c), b.CellCount(Side::kR, c));
  }
  // Scale factor inflates sample counts back to population scale.
  GridStats full(&g);
  full.AddSample(Side::kR, data, 1.0, 1);
  full.AddSample(Side::kS, data, 1.0, 2);
  double est = 0.0, exact = 0.0;
  a.AddSample(Side::kS, data, 0.1, 78);
  for (CellId c = 0; c < g.num_cells(); ++c) {
    est += a.EstimatedCellCost(c);
    exact += full.EstimatedCellCost(c);
  }
  EXPECT_NEAR(est / exact, 1.0, 0.25);
}

TEST(GridStatsTest, EstimatedCellCostIsProductOfSides) {
  const Grid g = MakeGrid();
  GridStats stats(&g);
  for (int i = 0; i < 4; ++i) stats.Add(Side::kR, Point{1, 1});
  for (int i = 0; i < 3; ++i) stats.Add(Side::kS, Point{1, 1});
  EXPECT_DOUBLE_EQ(stats.EstimatedCellCost(g.CellIdOf(0, 0)), 12.0);
  EXPECT_DOUBLE_EQ(stats.EstimatedCellCost(g.CellIdOf(1, 1)), 0.0);
  stats.SetScale(Side::kR, 2.0);
  EXPECT_DOUBLE_EQ(stats.EstimatedCellCost(g.CellIdOf(0, 0)), 24.0);
}

/// The draw as sampling made it before the admission scan: one
/// NextBernoulli(rate) of Rng(seed) per tuple, none at rate 1.
std::vector<Point> ReferenceDraw(const Dataset& data, double rate,
                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> out;
  for (const Tuple& t : data.tuples) {
    if (rate >= 1.0 || rng.NextBernoulli(rate)) out.push_back(t.pt);
  }
  return out;
}

bool SameBits(const Rect& a, const Rect& b) {
  return std::memcmp(&a, &b, sizeof(Rect)) == 0;
}

void ExpectSamePoints(const std::vector<Point>& got,
                      const std::vector<Point>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].x, want[i].x) << i;
    EXPECT_EQ(got[i].y, want[i].y) << i;
  }
}

struct ScanCase {
  std::string name;
  Dataset data;
  double rate;
};

/// Uniform and clustered inputs, duplicates and points on the max edge,
/// full sampling, and a rate that draws nothing.
std::vector<ScanCase> ScanCases() {
  std::vector<Point> edges;
  for (int i = 0; i < 400; ++i) {
    edges.push_back(Point{10.0, 0.025 * i});  // the max-x edge
    edges.push_back(Point{0.025 * i, 10.0});  // the max-y edge
    edges.push_back(Point{3.0, 4.0});         // one point, many times
  }
  datagen::GaussianClustersOptions clusters;
  clusters.num_clusters = 4;
  clusters.mbr = Rect{0, 0, 10, 10};
  return {
      {"uniform", datagen::GenerateUniform(5000, 3, Rect{0, 0, 10, 10}), 0.03},
      {"clustered", datagen::GenerateGaussianClusters(5000, 4, clusters),
       0.03},
      {"edges_and_duplicates", pasjoin::testing::MakeDataset(edges, 0), 0.3},
      {"full", datagen::GenerateUniform(2000, 5, Rect{0, 0, 10, 10}), 1.0},
      {"nothing_drawn", datagen::GenerateUniform(300, 6, Rect{0, 0, 10, 10}),
       1e-9},
  };
}

TEST(ScanInputTest, FoldsTheMbrAndDrawsTheSampleOfTheSeparatePasses) {
  for (const ScanCase& c : ScanCases()) {
    SCOPED_TRACE(c.name);
    const std::vector<Point> want = ReferenceDraw(c.data, c.rate, 77);
    const InputScan both = ScanInput(c.data, true, SampleDraw{c.rate, 77});
    EXPECT_TRUE(SameBits(both.bounds, c.data.Mbr()));
    ExpectSamePoints(both.sample, want);
    const InputScan drawn = ScanInput(c.data, false, SampleDraw{c.rate, 77});
    EXPECT_TRUE(SameBits(drawn.bounds, Rect{}));
    ExpectSamePoints(drawn.sample, want);
    const InputScan bounds = ScanInput(c.data, true, std::nullopt);
    EXPECT_TRUE(SameBits(bounds.bounds, c.data.Mbr()));
    EXPECT_TRUE(bounds.sample.empty());
  }
}

TEST(ScanInputTest, NonFiniteCoordinatesFoldAsTheMbrDoes) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    for (const size_t at : {size_t{0}, size_t{7}}) {
      Dataset data = datagen::GenerateUniform(50, 8, Rect{0, 0, 1, 1});
      data.tuples[at].pt.x = bad;
      data.tuples[at + 1].pt.y = bad;
      SCOPED_TRACE(std::to_string(bad) + " at " + std::to_string(at));
      EXPECT_TRUE(SameBits(ScanInput(data, true, std::nullopt).bounds,
                           data.Mbr()));
      EXPECT_TRUE(SameBits(
          ScanInput(data, true, SampleDraw{0.5, 9}).bounds, data.Mbr()));
    }
  }
}

TEST(GridStatsTest, AddSampleRecordsTheReferenceDrawPointByPoint) {
  const Grid g = MakeGrid();
  for (const ScanCase& c : ScanCases()) {
    SCOPED_TRACE(c.name);
    GridStats sampled(&g);
    sampled.AddSample(Side::kR, c.data, c.rate, 11);
    sampled.AddSample(Side::kS, c.data, c.rate, 12);
    GridStats added(&g);
    for (const Side side : {Side::kR, Side::kS}) {
      const std::vector<Point> draw =
          ReferenceDraw(c.data, c.rate, side == Side::kR ? 11 : 12);
      for (const Point& p : draw) added.Add(side, p);
      EXPECT_EQ(sampled.SampleSize(side), draw.size());
      EXPECT_EQ(sampled.Scale(side),
                draw.empty() ? 1.0
                             : static_cast<double>(c.data.tuples.size()) /
                                   static_cast<double>(draw.size()));
    }
    ASSERT_EQ(sampled.Sampled().size(), added.Sampled().size());
    CellId previous = -1;
    for (const CellCounts& counts : sampled.Sampled()) {
      EXPECT_LT(previous, counts.cell) << "cells out of order";
      previous = counts.cell;
      const CellCounts* want = added.Find(counts.cell);
      ASSERT_NE(want, nullptr) << counts.cell;
      EXPECT_EQ(std::memcmp(&counts, want, sizeof(CellCounts)), 0)
          << counts.cell;
    }
  }
}

}  // namespace
}  // namespace pasjoin::grid
