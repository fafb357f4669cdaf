// Copyright 2026 The pasjoin Authors.
//
// Graphviz (DOT) export of graph-of-agreements instances - renders the
// paper's Figure 3 / Figure 8 style pictures for debugging and inspection:
// vertices are cells, edge color encodes the agreement type, marked edges
// are drawn dashed red and locked edges solid green.
#ifndef PASJOIN_AGREEMENTS_DOT_EXPORT_H_
#define PASJOIN_AGREEMENTS_DOT_EXPORT_H_

#include <string>

#include "agreements/agreement_graph.h"

namespace pasjoin::agreements {

/// DOT digraph of quartet `q`'s subgraph (12 directed edges).
std::string SubgraphToDot(const AgreementGraph& graph, grid::QuartetId q);

/// DOT digraph of the agreements over a cell window [cx0, cx0+w) x
/// [cy0, cy0+h) of the grid. Side-pair agreements are drawn once per pair;
/// diagonal agreements once per quartet. Windows are clamped to the grid.
std::string GridAgreementsToDot(const AgreementGraph& graph, int cx0, int cy0,
                                int w, int h);

/// Compact text rendering of one subgraph for logs/tests:
/// "SW-SE:R SW-NW:S* ..." where '*' marks a marked edge and '!' a locked one.
std::string SubgraphToString(const QuartetSubgraph& sub);

}  // namespace pasjoin::agreements

#endif  // PASJOIN_AGREEMENTS_DOT_EXPORT_H_
