// Copyright 2026 The pasjoin Authors.
#include "agreements/dot_export.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace pasjoin::agreements {

namespace {

const char* kPosName[4] = {"SW", "SE", "NW", "NE"};

/// Style attributes for one directed edge.
std::string EdgeStyle(const QuartetSubgraph& sub, int i, int j) {
  std::string style = "color=";
  style += sub.type[i][j] == AgreementType::kReplicateR ? "black" : "gray60";
  if (sub.edge[i][j].marked) style += ",style=dashed,color=red";
  if (sub.edge[i][j].locked) style += ",color=green4";
  style += ",label=\"";
  style += sub.type[i][j] == AgreementType::kReplicateR ? "R" : "S";
  if (sub.edge[i][j].marked) style += "*";
  if (sub.edge[i][j].locked) style += "!";
  style += "\"";
  return style;
}

}  // namespace

std::string SubgraphToDot(const AgreementGraph& graph, grid::QuartetId q) {
  const QuartetSubgraph& sub = graph.Subgraph(q);
  const Point ref = graph.grid().QuartetRefPoint(q);
  std::ostringstream os;
  os << "digraph quartet_" << q << " {\n";
  os << "  // reference point (" << ref.x << ", " << ref.y << ")\n";
  for (int which = 0; which < 4; ++which) {
    os << "  " << kPosName[which] << " [label=\"" << kPosName[which] << "\\ncell "
       << graph.grid().QuartetCellId(q, which) << "\"];\n";
  }
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      if (i == j) continue;
      os << "  " << kPosName[i] << " -> " << kPosName[j] << " ["
         << EdgeStyle(sub, i, j) << "];\n";
    }
  }
  os << "}\n";
  return os.str();
}

std::string GridAgreementsToDot(const AgreementGraph& graph, int cx0, int cy0,
                                int w, int h) {
  const grid::Grid& g = graph.grid();
  const int x_lo = std::clamp(cx0, 0, g.nx() - 1);
  const int y_lo = std::clamp(cy0, 0, g.ny() - 1);
  const int x_hi = std::clamp(cx0 + w - 1, x_lo, g.nx() - 1);
  const int y_hi = std::clamp(cy0 + h - 1, y_lo, g.ny() - 1);

  std::ostringstream os;
  os << "graph agreements {\n  layout=neato;\n";
  for (int cy = y_lo; cy <= y_hi; ++cy) {
    for (int cx = x_lo; cx <= x_hi; ++cx) {
      os << "  c" << g.CellIdOf(cx, cy) << " [label=\"" << g.CellIdOf(cx, cy)
         << "\",pos=\"" << cx << "," << cy << "!\",shape=box];\n";
    }
  }
  auto edge = [&os](grid::CellId a, grid::CellId b, AgreementType t,
                    const char* extra) {
    os << "  c" << a << " -- c" << b << " [color="
       << (t == AgreementType::kReplicateR ? "black" : "gray60") << ",label=\""
       << (t == AgreementType::kReplicateR ? "R" : "S") << "\"" << extra
       << "];\n";
  };
  // Side pairs inside the window.
  for (int cy = y_lo; cy <= y_hi; ++cy) {
    for (int cx = x_lo; cx < x_hi; ++cx) {
      const grid::CellId a = g.CellIdOf(cx, cy);
      edge(a, g.CellIdOf(cx + 1, cy), graph.PairTypeToward(a, 1, 0), "");
    }
  }
  for (int cy = y_lo; cy < y_hi; ++cy) {
    for (int cx = x_lo; cx <= x_hi; ++cx) {
      const grid::CellId a = g.CellIdOf(cx, cy);
      edge(a, g.CellIdOf(cx, cy + 1), graph.PairTypeToward(a, 0, 1), "");
    }
  }
  // Diagonal pairs of the quartets fully inside the window.
  for (int qy = y_lo + 1; qy <= y_hi; ++qy) {
    for (int qx = x_lo + 1; qx <= x_hi; ++qx) {
      const grid::QuartetId q = g.QuartetIdOf(qx, qy);
      if (q == grid::kInvalidId) continue;
      const QuartetSubgraph& sub = graph.Subgraph(q);
      edge(g.QuartetCellId(q, grid::kSW), g.QuartetCellId(q, grid::kNE),
           sub.type[grid::kSW][grid::kNE], ",style=dotted");
      edge(g.QuartetCellId(q, grid::kSE), g.QuartetCellId(q, grid::kNW),
           sub.type[grid::kSE][grid::kNW], ",style=dotted");
    }
  }
  os << "}\n";
  return os.str();
}

std::string SubgraphToString(const QuartetSubgraph& sub) {
  std::ostringstream os;
  bool first = true;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      if (i == j) continue;
      if (!first) os << " ";
      first = false;
      os << kPosName[i] << ">" << kPosName[j] << ":"
         << (sub.type[i][j] == AgreementType::kReplicateR ? "R" : "S");
      if (sub.edge[i][j].marked) os << "*";
      if (sub.edge[i][j].locked) os << "!";
    }
  }
  return os.str();
}

}  // namespace pasjoin::agreements
