// Copyright 2026 The pasjoin Authors.
#include "agreements/dot_export.h"

#include <memory>

#include <gtest/gtest.h>

#include "grid/stats.h"

namespace pasjoin::agreements {
namespace {

// The graph stores a pointer to the grid, so the grid needs a stable heap
// address for the scenario to be movable.
struct Scenario {
  std::unique_ptr<grid::Grid> grid_ptr;
  std::unique_ptr<AgreementGraph> graph_ptr;
  grid::Grid& grid() { return *grid_ptr; }
  AgreementGraph& graph() { return *graph_ptr; }

  static Scenario Make() {
    Scenario sc;
    sc.grid_ptr = std::make_unique<grid::Grid>(
        grid::Grid::Make(Rect{0, 0, 6.3, 6.3}, 1.0, 2.0).MoveValue());
    grid::GridStats stats(sc.grid_ptr.get());
    sc.graph_ptr = std::make_unique<AgreementGraph>(
        AgreementGraph::Build(*sc.grid_ptr, stats, Policy::kUniformR));
    return sc;
  }
};

TEST(DotExportTest, SubgraphDotHasAllEdgesAndVertices) {
  Scenario sc = Scenario::Make();
  const std::string dot =
      SubgraphToDot(sc.graph(), sc.grid().QuartetIdOf(1, 1));
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  for (const char* name : {"SW", "SE", "NW", "NE"}) {
    EXPECT_NE(dot.find(name), std::string::npos);
  }
  // 12 directed edges.
  size_t arrows = 0;
  for (size_t pos = dot.find("->"); pos != std::string::npos;
       pos = dot.find("->", pos + 1)) {
    ++arrows;
  }
  EXPECT_EQ(arrows, 12u);
}

TEST(DotExportTest, MarkedAndLockedEdgesAreHighlighted) {
  Scenario sc = Scenario::Make();
  const grid::QuartetId q = sc.grid().QuartetIdOf(1, 1);
  sc.graph().SetHorizontalPairType(0, 1, AgreementType::kReplicateS);
  sc.graph().RunDuplicateFreeMarking();
  ASSERT_GT(sc.graph().CountMarked(), 0u);
  const std::string dot = SubgraphToDot(sc.graph(), q);
  EXPECT_NE(dot.find("dashed"), std::string::npos);
  EXPECT_NE(dot.find("green4"), std::string::npos);
  const std::string text = SubgraphToString(sc.graph().Subgraph(q));
  EXPECT_NE(text.find('*'), std::string::npos);
  EXPECT_NE(text.find('!'), std::string::npos);
}

TEST(DotExportTest, GridWindowExportsPairsOnce) {
  Scenario sc = Scenario::Make();
  const std::string dot = GridAgreementsToDot(sc.graph(), 0, 0, 2, 2);
  EXPECT_NE(dot.find("graph agreements"), std::string::npos);
  // 2x2 window: 4 vertices, 4 side pairs, 2 diagonal pairs.
  size_t edges = 0;
  for (size_t pos = dot.find("--"); pos != std::string::npos;
       pos = dot.find("--", pos + 1)) {
    ++edges;
  }
  EXPECT_EQ(edges, 6u);
  // Windows are clamped to the grid.
  const std::string clamped = GridAgreementsToDot(sc.graph(), -5, -5, 100, 100);
  EXPECT_NE(clamped.find("graph agreements"), std::string::npos);
}

}  // namespace
}  // namespace pasjoin::agreements
