// Copyright 2026 The pasjoin Authors.
#include "agreements/agreement_graph.h"

#include <algorithm>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "grid/grid.h"
#include "grid/stats.h"
#include "test_util.h"

namespace pasjoin::agreements {
namespace {

using grid::CellId;
using grid::Grid;
using grid::GridStats;
using grid::QuartetId;

Grid MakeGrid(int nx_target = 4, int ny_target = 4) {
  return Grid::Make(Rect{0, 0, nx_target * 2.1, ny_target * 2.1}, 1.0, 2.0)
      .MoveValue();
}

TEST(PolicyNameTest, Names) {
  EXPECT_STREQ(PolicyName(Policy::kLPiB), "LPiB");
  EXPECT_STREQ(PolicyName(Policy::kDiff), "DIFF");
  EXPECT_STREQ(PolicyName(Policy::kUniformR), "UNI(R)");
  EXPECT_STREQ(PolicyName(Policy::kUniformS), "UNI(S)");
}

TEST(AgreementHelpersTest, SideTypeConversions) {
  EXPECT_EQ(AgreementFor(Side::kR), AgreementType::kReplicateR);
  EXPECT_EQ(AgreementFor(Side::kS), AgreementType::kReplicateS);
  EXPECT_EQ(ReplicatedSide(AgreementType::kReplicateR), Side::kR);
  EXPECT_EQ(ReplicatedSide(AgreementType::kReplicateS), Side::kS);
}

TEST(AgreementGraphTest, UniformPoliciesSetEveryPairType) {
  const Grid g = MakeGrid();
  GridStats stats(&g);
  const AgreementGraph graph_r =
      AgreementGraph::Build(g, stats, Policy::kUniformR);
  const AgreementGraph graph_s =
      AgreementGraph::Build(g, stats, Policy::kUniformS);
  for (QuartetId q = 0; q < g.num_quartets(); ++q) {
    const QuartetSubgraph& sr = graph_r.Subgraph(q);
    const QuartetSubgraph& ss = graph_s.Subgraph(q);
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        if (i == j) continue;
        EXPECT_EQ(sr.type[i][j], AgreementType::kReplicateR);
        EXPECT_EQ(ss.type[i][j], AgreementType::kReplicateS);
      }
    }
  }
}

TEST(AgreementGraphTest, PairTypesAreSymmetricAndSharedAcrossQuartets) {
  const Grid g = MakeGrid();
  GridStats stats(&g);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    stats.Add(rng.NextBernoulli(0.5) ? Side::kR : Side::kS,
              Point{rng.NextUniform(0, 8.4), rng.NextUniform(0, 8.4)});
  }
  AgreementGraph graph = AgreementGraph::Build(g, stats, Policy::kLPiB);
  graph.RandomizeForTesting(99);
  for (QuartetId q = 0; q < g.num_quartets(); ++q) {
    const QuartetSubgraph& sub = graph.Subgraph(q);
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) {
        EXPECT_EQ(sub.type[i][j], sub.type[j][i]) << "quartet " << q;
      }
    }
  }
  // A side pair shared by two quartets must carry the same type in both.
  for (int qx = 1; qx < g.nx(); ++qx) {
    for (int qy = 1; qy + 1 < g.ny(); ++qy) {
      const QuartetSubgraph& below = graph.Subgraph(g.QuartetIdOf(qx, qy));
      const QuartetSubgraph& above = graph.Subgraph(g.QuartetIdOf(qx, qy + 1));
      // The pair (NW, NE) of `below` is the pair (SW, SE) of `above`.
      EXPECT_EQ(below.type[grid::kNW][grid::kNE],
                above.type[grid::kSW][grid::kSE]);
    }
  }
  // PairTypeToward agrees with the subgraph copies.
  const QuartetId q = g.QuartetIdOf(1, 1);
  const QuartetSubgraph& sub = graph.Subgraph(q);
  EXPECT_EQ(graph.PairTypeToward(g.QuartetCellId(q, grid::kSW), 1, 0),
            sub.type[grid::kSW][grid::kSE]);
  EXPECT_EQ(graph.PairTypeToward(g.QuartetCellId(q, grid::kSW), 0, 1),
            sub.type[grid::kSW][grid::kNW]);
  EXPECT_EQ(graph.PairTypeToward(g.QuartetCellId(q, grid::kNE), -1, 0),
            sub.type[grid::kNE][grid::kNW]);
}

TEST(AgreementGraphTest, UniformInstanceNeedsNoMarking) {
  // PBSM is the all-identical-agreements instance (Section 4.4); with a
  // single agreement type no triangle carries both types, so Algorithm 1
  // marks nothing.
  const Grid g = MakeGrid();
  GridStats stats(&g);
  AgreementGraph graph = AgreementGraph::Build(g, stats, Policy::kUniformR);
  graph.RunDuplicateFreeMarking();
  EXPECT_EQ(graph.CountMarked(), 0u);
  EXPECT_EQ(graph.CountLocked(), 0u);
}

/// Structural invariants of Algorithm 1's output on one subgraph.
void CheckMarkingInvariants(const QuartetSubgraph& sub) {
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      if (i == j) continue;
      if (!sub.edge[i][j].marked) continue;
      // A marked edge must be justified by at least one triangle {i, j, k}
      // where i replicates the same type to j and k while (j, k) carries the
      // other type (the "problem vertex" pattern of Section 4.5.1), and the
      // two protected edges of that triangle must be locked and unmarked.
      bool justified = false;
      for (int k = 0; k < 4; ++k) {
        if (k == i || k == j) continue;
        if (sub.type[i][k] == sub.type[i][j] &&
            sub.type[j][k] != sub.type[i][j] && !sub.edge[j][k].marked &&
            !sub.edge[i][k].marked && sub.edge[j][k].locked &&
            sub.edge[i][k].locked) {
          justified = true;
        }
      }
      EXPECT_TRUE(justified) << "unjustified mark on e[" << i << "][" << j
                             << "]";
    }
  }
  // No triangle may retain the duplicate-producing pattern unmarked: for a
  // problem vertex i with same-type edges to j and k (other type on (j,k)),
  // at least one of e_ij / e_ik must be marked.
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      for (int k = j + 1; k < 4; ++k) {
        if (i == j || i == k) continue;
        if (sub.type[i][j] == sub.type[i][k] &&
            sub.type[j][k] != sub.type[i][j]) {
          EXPECT_TRUE(sub.edge[i][j].marked || sub.edge[i][k].marked)
              << "unresolved triangle at problem vertex " << i << " (" << j
              << "," << k << ")";
        }
      }
    }
  }
}

TEST(AlgorithmOneTest, InvariantsHoldOnRandomInstances) {
  const Grid g = MakeGrid(5, 5);
  GridStats stats(&g);
  Rng rng(31);
  for (int i = 0; i < 800; ++i) {
    stats.Add(rng.NextBernoulli(0.5) ? Side::kR : Side::kS,
              Point{rng.NextUniform(0, 10.5), rng.NextUniform(0, 10.5)});
  }
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    AgreementGraph graph = AgreementGraph::Build(g, stats, Policy::kLPiB);
    graph.RandomizeForTesting(seed);
    graph.RunDuplicateFreeMarking();
    for (QuartetId q = 0; q < g.num_quartets(); ++q) {
      CheckMarkingInvariants(graph.Subgraph(q));
      if (::testing::Test::HasFailure()) {
        FAIL() << "seed " << seed << " quartet " << q;
      }
    }
  }
}

TEST(AlgorithmOneTest, MixedTypesProduceMarks) {
  // A quartet with three R pairs incident to SW and an S pair opposite must
  // trigger at least one mark.
  const Grid g = MakeGrid(2, 2);
  GridStats stats(&g);
  AgreementGraph graph = AgreementGraph::Build(g, stats, Policy::kUniformR);
  const QuartetId q = g.QuartetIdOf(1, 1);
  graph.SetHorizontalPairType(0, 1, AgreementType::kReplicateS);  // NW-NE
  graph.RunDuplicateFreeMarking();
  EXPECT_GT(graph.CountMarked(), 0u);
  EXPECT_GT(graph.CountLocked(), 0u);
  CheckMarkingInvariants(graph.Subgraph(q));
}

TEST(AlgorithmOneTest, LockedEdgesAreNeverMarked) {
  const Grid g = MakeGrid(4, 4);
  GridStats stats(&g);
  for (uint64_t seed = 100; seed < 140; ++seed) {
    AgreementGraph graph = AgreementGraph::Build(g, stats, Policy::kDiff);
    graph.RandomizeForTesting(seed);
    graph.RunDuplicateFreeMarking();
    for (QuartetId q = 0; q < g.num_quartets(); ++q) {
      const QuartetSubgraph& sub = graph.Subgraph(q);
      for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
          if (i == j) continue;
          EXPECT_FALSE(sub.edge[i][j].marked && sub.edge[i][j].locked)
              << "edge both marked and locked";
        }
      }
    }
  }
}

TEST(AgreementGraphTest, WeightsFollowExampleFourFour) {
  // Checked in detail by the running-example test; here: weights are zero
  // without samples and non-negative always.
  const Grid g = MakeGrid();
  GridStats stats(&g);
  AgreementGraph graph = AgreementGraph::Build(g, stats, Policy::kLPiB);
  for (QuartetId q = 0; q < g.num_quartets(); ++q) {
    const QuartetSubgraph& sub = graph.Subgraph(q);
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        if (i != j) {
          EXPECT_EQ(sub.edge[i][j].weight, 0.0f);
        }
      }
    }
  }
}

TEST(DecidePairTypeTest, OrientationSymmetryProperty) {
  // Decide(a, b, dir) must equal Decide(b, a, -dir) for every policy: any
  // parallel pair-evaluation order must be unable to flip a pair by
  // visiting it from the other end. Regression for the DecideByDiff tie
  // path, which used to let the *first argument* decide on diff_a == diff_b.
  const Grid g = MakeGrid(5, 5);
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    GridStats stats(&g);
    Rng rng(seed);
    // Sparse counts make exact |#R - #S| ties common.
    for (int i = 0; i < 120; ++i) {
      stats.Add(rng.NextBernoulli(0.5) ? Side::kR : Side::kS,
                Point{rng.NextUniform(0, 10.5), rng.NextUniform(0, 10.5)});
    }
    for (const Policy policy : {Policy::kLPiB, Policy::kDiff,
                                Policy::kUniformR, Policy::kUniformS}) {
      for (const AgreementType tie_break :
           {AgreementType::kReplicateR, AgreementType::kReplicateS}) {
        const AgreementGraph graph =
            AgreementGraph::PrepareBuild(g, stats, policy, tie_break);
        for (int cy = 0; cy < g.ny(); ++cy) {
          for (int cx = 0; cx < g.nx(); ++cx) {
            const CellId a = g.CellIdOf(cx, cy);
            // All four neighbor kinds with a positive-x/y component; the
            // reverse orientation covers the other four.
            for (const auto& [dx, dy] :
                 {std::pair{1, 0}, std::pair{0, 1}, std::pair{1, 1},
                  std::pair{-1, 1}}) {
              if (!g.HasCell(cx + dx, cy + dy)) continue;
              const CellId b = g.CellIdOf(cx + dx, cy + dy);
              EXPECT_EQ(
                  graph.DecidePairType(stats, a, b, grid::DirIndex(dx, dy)),
                  graph.DecidePairType(stats, b, a, grid::DirIndex(-dx, -dy)))
                  << "seed " << seed << " policy " << PolicyName(policy)
                  << " pair (" << a << "," << b << ") dir (" << dx << ","
                  << dy << ")";
            }
          }
        }
      }
    }
  }
}

TEST(DecidePairTypeTest, DiffTieIsDecidedByTheSmallerCellId) {
  // Crafted |#R - #S| tie: cell a has (R=5, S=3), cell b has (R=1, S=3) -
  // both diffs are 2. The smaller CellId (a) decides: R > S there, so the
  // agreement replicates S, from both orientations.
  const Grid g = MakeGrid(4, 4);
  GridStats stats(&g);
  const CellId a = g.CellIdOf(0, 0);
  const CellId b = g.CellIdOf(1, 0);
  for (int i = 0; i < 5; ++i) stats.Add(Side::kR, Point{0.5, 0.5});
  for (int i = 0; i < 3; ++i) stats.Add(Side::kS, Point{0.5, 0.5});
  for (int i = 0; i < 1; ++i) stats.Add(Side::kR, Point{2.6, 0.5});
  for (int i = 0; i < 3; ++i) stats.Add(Side::kS, Point{2.6, 0.5});
  ASSERT_EQ(stats.CellCount(Side::kR, a), 5u);
  ASSERT_EQ(stats.CellCount(Side::kS, b), 3u);
  const AgreementGraph graph =
      AgreementGraph::PrepareBuild(g, stats, Policy::kDiff,
                                   AgreementType::kReplicateR);
  EXPECT_EQ(graph.DecidePairType(stats, a, b, grid::DirIndex(1, 0)),
            AgreementType::kReplicateS);
  EXPECT_EQ(graph.DecidePairType(stats, b, a, grid::DirIndex(-1, 0)),
            AgreementType::kReplicateS);
}

TEST(AgreementGraphTest, ChunkedBuildMatchesSequentialBuild) {
  // PrepareBuild + DecidePairRange + MaterializeSubgraphRange over
  // arbitrary chunk boundaries is the same computation Build runs. The
  // sample leaves some cells empty, so default quartets are compared too.
  const Grid g = MakeGrid(5, 4);
  GridStats stats(&g);
  Rng rng(17);
  for (int i = 0; i < 400; ++i) {
    stats.Add(rng.NextBernoulli(0.4) ? Side::kR : Side::kS,
              Point{rng.NextUniform(0, 10.5), rng.NextUniform(0, 8.4)});
  }
  for (const Policy policy : {Policy::kLPiB, Policy::kDiff}) {
    const AgreementGraph whole = AgreementGraph::Build(g, stats, policy);
    AgreementGraph chunked = AgreementGraph::PrepareBuild(g, stats, policy);
    for (int begin = 0; begin < chunked.NumPairAnchors(); begin += 7) {
      chunked.DecidePairRange(stats, begin,
                              std::min(chunked.NumPairAnchors(), begin + 7));
    }
    for (int begin = 0; begin < chunked.NumMaterialized(); begin += 3) {
      chunked.MaterializeSubgraphRange(
          stats, begin, std::min(chunked.NumMaterialized(), begin + 3));
    }
    for (QuartetId q = 0; q < g.num_quartets(); ++q) {
      const QuartetSubgraph& sw = whole.Subgraph(q);
      const QuartetSubgraph& sc = chunked.Subgraph(q);
      for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
          if (i == j) continue;
          EXPECT_EQ(sw.type[i][j], sc.type[i][j]);
          EXPECT_EQ(sw.edge[i][j].weight, sc.edge[i][j].weight);
        }
      }
    }
  }
}

TEST(AgreementGraphTest, MarkQuartetsInAnyOrderMatchesSequentialMarking) {
  // Algorithm 1 mutates only the quartet's own subgraph copy, so marking
  // the quartets in any order - here reversed - produces identical bytes.
  const Grid g = MakeGrid(5, 5);
  GridStats stats(&g);
  for (const MarkingOrder order :
       {MarkingOrder::kPaper, MarkingOrder::kIndexOrder}) {
    AgreementGraph seq = AgreementGraph::Build(g, stats, Policy::kLPiB);
    seq.RandomizeForTesting(23);
    seq.RunDuplicateFreeMarking(order);
    AgreementGraph rev = AgreementGraph::Build(g, stats, Policy::kLPiB);
    rev.RandomizeForTesting(23);
    for (int slot = rev.NumMaterialized() - 1; slot >= 0; --slot) {
      rev.MarkRange(slot, slot + 1, order);
    }
    rev.FinishMarking();
    for (QuartetId q = 0; q < g.num_quartets(); ++q) {
      const QuartetSubgraph& a = seq.Subgraph(q);
      const QuartetSubgraph& b = rev.Subgraph(q);
      for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
          if (i == j) continue;
          EXPECT_EQ(a.edge[i][j].marked, b.edge[i][j].marked)
              << "quartet " << q;
          EXPECT_EQ(a.edge[i][j].locked, b.edge[i][j].locked)
              << "quartet " << q;
        }
      }
    }
  }
}

TEST(AgreementGraphTest, MarkingIsIdempotent) {
  const Grid g = MakeGrid();
  GridStats stats(&g);
  AgreementGraph graph = AgreementGraph::Build(g, stats, Policy::kLPiB);
  graph.RandomizeForTesting(7);
  graph.RunDuplicateFreeMarking();
  const size_t marked = graph.CountMarked();
  const size_t locked = graph.CountLocked();
  graph.RunDuplicateFreeMarking();
  EXPECT_EQ(graph.CountMarked(), marked);
  EXPECT_EQ(graph.CountLocked(), locked);
}

}  // namespace
}  // namespace pasjoin::agreements
