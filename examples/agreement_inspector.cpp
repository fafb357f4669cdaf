// Copyright 2026 The pasjoin Authors.
//
// Inspect the graph of agreements: builds an adaptive instance over skewed
// data and prints (a) a DOT rendering of a grid window (Figure 3 style) and
// (b) the subgraph with the most marked edges (Figure 8 style), ready for
// `dot -Tpng`.
//
// Build & run:   ./build/examples/agreement_inspector > agreements.dot
#include <cstdio>

#include "agreements/dot_export.h"
#include "common/tuple.h"
#include "datagen/generators.h"
#include "grid/grid.h"
#include "grid/stats.h"

int main() {
  using namespace pasjoin;

  const Dataset r = datagen::MakePaperDataset(datagen::PaperDataset::kR1, 80000);
  const Dataset s = datagen::MakePaperDataset(datagen::PaperDataset::kS1, 80000);
  const Rect mbr = ContinentalUsMbr();
  const grid::Grid grid = grid::Grid::Make(mbr, 0.3, 2.0).MoveValue();
  grid::GridStats stats(&grid);
  stats.AddSample(Side::kR, r, 1.0, 1);
  stats.AddSample(Side::kS, s, 1.0, 2);
  agreements::AgreementGraph graph =
      agreements::AgreementGraph::Build(grid, stats, agreements::Policy::kLPiB);
  graph.RunDuplicateFreeMarking();

  std::fprintf(stderr, "grid: %s, marked edges: %zu, locked edges: %zu\n",
               grid.ToString().c_str(), graph.CountMarked(),
               graph.CountLocked());

  // The quartet with the most marked edges, as a Figure 8 style digraph.
  grid::QuartetId busiest = 0;
  int busiest_marks = -1;
  for (grid::QuartetId q = 0; q < grid.num_quartets(); ++q) {
    const agreements::QuartetSubgraph& sub = graph.Subgraph(q);
    int marks = 0;
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        if (i != j && sub.edge[i][j].marked) ++marks;
      }
    }
    if (marks > busiest_marks) {
      busiest_marks = marks;
      busiest = q;
    }
  }
  std::fprintf(stderr, "busiest quartet %d (%d marked): %s\n", busiest,
               busiest_marks,
               agreements::SubgraphToString(graph.Subgraph(busiest)).c_str());

  // DOT output on stdout: a window around the busiest quartet.
  const int cx = grid.QuartetX(busiest) - 2;
  const int cy = grid.QuartetY(busiest) - 2;
  std::printf("%s\n", agreements::GridAgreementsToDot(graph, cx, cy, 4, 4).c_str());
  std::printf("%s\n",
              agreements::SubgraphToDot(graph, busiest).c_str());
  return 0;
}
