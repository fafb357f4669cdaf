// Copyright 2026 The pasjoin Authors.
//
// Reproduces the paper's running example (Figure 2 / Table 1 / Examples 4.3
// and 4.4) on a concrete coordinate realization of the four-cell layout:
//
//     A | B        A = top-left, B = top-right,
//     --+--        D = bottom-left, C = bottom-right,
//     D | C        common corner at (2.1, 2.1), eps = 1.
//
// The coordinates are chosen so that every point's replication pattern
// matches Table 1 exactly; the test then checks the replicated sets, the
// per-cell worst-case costs, the LPiB/DIFF decisions of Example 4.3 and the
// edge weights of Example 4.4.
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "agreements/agreement_graph.h"
#include "grid/grid.h"
#include "grid/stats.h"
#include "test_util.h"

namespace pasjoin {
namespace {

using agreements::AgreementGraph;
using agreements::AgreementType;
using agreements::Policy;
using grid::CellId;
using grid::Grid;
using grid::GridStats;

constexpr double kEps = 1.0;

struct RunningExample {
  Grid grid;
  CellId a, b, c, d;
  Dataset r, s;  // r.tuples[i] is r_{i+1}, likewise for s
};

RunningExample MakeExample() {
  Grid grid = Grid::Make(Rect{0, 0, 4.2, 4.2}, kEps, 2.0).MoveValue();
  RunningExample ex{std::move(grid), 0, 0, 0, 0, {}, {}};
  ex.a = ex.grid.CellIdOf(0, 1);
  ex.b = ex.grid.CellIdOf(1, 1);
  ex.c = ex.grid.CellIdOf(1, 0);
  ex.d = ex.grid.CellIdOf(0, 0);
  const std::vector<Point> r_pts = {
      {0.8, 2.6},  // r1 in A, replicated to D only
      {2.5, 2.6},  // r2 in B, replicated to A, C, D
      {3.6, 3.6},  // r3 in B, interior
      {3.5, 2.8},  // r4 in B, replicated to C only
      {2.4, 1.8},  // r5 in C, replicated to A, B, D
      {2.6, 0.6},  // r6 in C, replicated to D only
      {1.2, 1.5},  // r7 in D, replicated to A and C (not B)
      {0.5, 1.4},  // r8 in D, replicated to A only
  };
  const std::vector<Point> s_pts = {
      {1.8, 3.5},  // s1 in A -> B
      {1.9, 3.8},  // s2 in A -> B
      {1.7, 2.7},  // s3 in A -> B, C, D
      {2.4, 3.9},  // s4 in B -> A
      {2.8, 1.9},  // s5 in C -> A, B, D
      {3.7, 0.5},  // s6 in C, interior
      {1.5, 1.6},  // s7 in D -> A, B, C
      {1.9, 0.4},  // s8 in D -> C
  };
  ex.r = pasjoin::testing::MakeDataset(r_pts, 1, "R");       // ids 1..8
  ex.s = pasjoin::testing::MakeDataset(s_pts, 101, "S");     // ids 101..108
  return ex;
}

/// PBSM universal replication: all cells within MINDIST <= eps, native first.
std::set<CellId> PbsmReplicas(const Grid& grid, const Point& p) {
  std::set<CellId> out;
  const CellId native = grid.Locate(p);
  for (CellId c = 0; c < grid.num_cells(); ++c) {
    if (c != native && MinDist(p, grid.CellRect(c)) <= grid.eps()) out.insert(c);
  }
  return out;
}

TEST(RunningExampleTest, PointsLieInTheirCells) {
  const RunningExample ex = MakeExample();
  EXPECT_EQ(ex.grid.Locate(ex.r.tuples[0].pt), ex.a);
  EXPECT_EQ(ex.grid.Locate(ex.r.tuples[1].pt), ex.b);
  EXPECT_EQ(ex.grid.Locate(ex.r.tuples[2].pt), ex.b);
  EXPECT_EQ(ex.grid.Locate(ex.r.tuples[3].pt), ex.b);
  EXPECT_EQ(ex.grid.Locate(ex.r.tuples[4].pt), ex.c);
  EXPECT_EQ(ex.grid.Locate(ex.r.tuples[5].pt), ex.c);
  EXPECT_EQ(ex.grid.Locate(ex.r.tuples[6].pt), ex.d);
  EXPECT_EQ(ex.grid.Locate(ex.r.tuples[7].pt), ex.d);
  EXPECT_EQ(ex.grid.Locate(ex.s.tuples[0].pt), ex.a);
  EXPECT_EQ(ex.grid.Locate(ex.s.tuples[3].pt), ex.b);
  EXPECT_EQ(ex.grid.Locate(ex.s.tuples[4].pt), ex.c);
  EXPECT_EQ(ex.grid.Locate(ex.s.tuples[7].pt), ex.d);
}

TEST(RunningExampleTest, UniversalReplicationOfRMatchesTableOne) {
  const RunningExample ex = MakeExample();
  const std::vector<std::set<CellId>> expected = {
      {ex.d},              // r1
      {ex.a, ex.c, ex.d},  // r2
      {},                  // r3
      {ex.c},              // r4
      {ex.a, ex.b, ex.d},  // r5
      {ex.d},              // r6
      {ex.a, ex.c},        // r7
      {ex.a},              // r8
  };
  size_t total = 0;
  for (size_t i = 0; i < ex.r.tuples.size(); ++i) {
    const std::set<CellId> got = PbsmReplicas(ex.grid, ex.r.tuples[i].pt);
    EXPECT_EQ(got, expected[i]) << "r" << (i + 1);
    total += got.size();
  }
  EXPECT_EQ(total, 12u);  // Table 1: 12 replicated R objects
}

TEST(RunningExampleTest, UniversalReplicationOfSMatchesTableOne) {
  const RunningExample ex = MakeExample();
  const std::vector<std::set<CellId>> expected = {
      {ex.b},              // s1
      {ex.b},              // s2
      {ex.b, ex.c, ex.d},  // s3
      {ex.a},              // s4
      {ex.a, ex.b, ex.d},  // s5
      {},                  // s6
      {ex.a, ex.b, ex.c},  // s7
      {ex.c},              // s8
  };
  size_t total = 0;
  for (size_t i = 0; i < ex.s.tuples.size(); ++i) {
    const std::set<CellId> got = PbsmReplicas(ex.grid, ex.s.tuples[i].pt);
    EXPECT_EQ(got, expected[i]) << "s" << (i + 1);
    total += got.size();
  }
  EXPECT_EQ(total, 13u);  // Table 1: 13 replicated S objects
}

/// Worst-case cost per cell (r * s) under universal replication of `side`.
std::map<CellId, uint64_t> CellCosts(const RunningExample& ex, Side side) {
  std::map<CellId, uint64_t> r_count, s_count;
  for (const Tuple& t : ex.r.tuples) {
    ++r_count[ex.grid.Locate(t.pt)];
    if (side == Side::kR) {
      for (CellId c : PbsmReplicas(ex.grid, t.pt)) ++r_count[c];
    }
  }
  for (const Tuple& t : ex.s.tuples) {
    ++s_count[ex.grid.Locate(t.pt)];
    if (side == Side::kS) {
      for (CellId c : PbsmReplicas(ex.grid, t.pt)) ++s_count[c];
    }
  }
  std::map<CellId, uint64_t> cost;
  for (CellId c = 0; c < ex.grid.num_cells(); ++c) {
    cost[c] = r_count[c] * s_count[c];
  }
  return cost;
}

TEST(RunningExampleTest, PerCellCostsMatchTableOne) {
  const RunningExample ex = MakeExample();
  const std::map<CellId, uint64_t> uni_r = CellCosts(ex, Side::kR);
  EXPECT_EQ(uni_r.at(ex.a), 15u);
  EXPECT_EQ(uni_r.at(ex.b), 4u);
  EXPECT_EQ(uni_r.at(ex.c), 10u);
  EXPECT_EQ(uni_r.at(ex.d), 12u);
  const std::map<CellId, uint64_t> uni_s = CellCosts(ex, Side::kS);
  EXPECT_EQ(uni_s.at(ex.a), 6u);
  EXPECT_EQ(uni_s.at(ex.b), 18u);
  EXPECT_EQ(uni_s.at(ex.c), 10u);
  EXPECT_EQ(uni_s.at(ex.d), 8u);
  // The paper's observation: replicating R is cheaper overall (41 < 42).
  uint64_t total_r = 0, total_s = 0;
  for (const auto& [cell, cost] : uni_r) total_r += cost;
  for (const auto& [cell, cost] : uni_s) total_s += cost;
  EXPECT_EQ(total_r, 41u);
  EXPECT_EQ(total_s, 42u);
}

TEST(RunningExampleTest, ExampleFourThreeAgreementDecisions) {
  const RunningExample ex = MakeExample();
  GridStats stats(&ex.grid);
  stats.AddSample(Side::kR, ex.r, 1.0, 1);
  stats.AddSample(Side::kS, ex.s, 1.0, 2);

  // LPiB between A and D: candidates are {s3, s7} vs {r1, r7, r8} -> alpha_S.
  const AgreementGraph lpib =
      AgreementGraph::Build(ex.grid, stats, Policy::kLPiB);
  EXPECT_EQ(lpib.PairTypeToward(ex.a, 0, -1), AgreementType::kReplicateS);
  EXPECT_EQ(lpib.PairTypeToward(ex.d, 0, +1), AgreementType::kReplicateS);

  // DIFF between A and D: A has the larger |#R - #S| = |1-3| and fewer R
  // points -> alpha_R.
  const AgreementGraph diff =
      AgreementGraph::Build(ex.grid, stats, Policy::kDiff);
  EXPECT_EQ(diff.PairTypeToward(ex.a, 0, -1), AgreementType::kReplicateR);
}

TEST(RunningExampleTest, ExampleFourFourEdgeWeights) {
  const RunningExample ex = MakeExample();
  GridStats stats(&ex.grid);
  stats.AddSample(Side::kR, ex.r, 1.0, 1);
  stats.AddSample(Side::kS, ex.s, 1.0, 2);

  const grid::QuartetId q = ex.grid.QuartetIdOf(1, 1);
  // With agreement a_R everywhere: w_BA = (r2 from B) * (s1,s2,s3 in A) = 3.
  {
    const AgreementGraph graph =
        AgreementGraph::Build(ex.grid, stats, Policy::kUniformR);
    const agreements::QuartetSubgraph& sub = graph.Subgraph(q);
    // B is NE of the quartet, A is NW.
    EXPECT_EQ(ex.grid.QuartetCellId(q, grid::kNE), ex.b);
    EXPECT_EQ(ex.grid.QuartetCellId(q, grid::kNW), ex.a);
    EXPECT_FLOAT_EQ(sub.edge[grid::kNE][grid::kNW].weight, 3.0f);
  }
  // With agreement a_S everywhere: w_CB = (s5 from C) * (r2,r3,r4 in B) = 3.
  {
    const AgreementGraph graph =
        AgreementGraph::Build(ex.grid, stats, Policy::kUniformS);
    const agreements::QuartetSubgraph& sub = graph.Subgraph(q);
    EXPECT_EQ(ex.grid.QuartetCellId(q, grid::kSE), ex.c);
    EXPECT_FLOAT_EQ(sub.edge[grid::kSE][grid::kNE].weight, 3.0f);
  }
}

}  // namespace
}  // namespace pasjoin
