// Copyright 2026 The pasjoin Authors.
#include "core/replication.h"

#include "common/macros.h"

namespace pasjoin::core {

using agreements::AgreementFor;
using agreements::AgreementType;
using agreements::QuartetSubgraph;
using grid::AreaInfo;
using grid::AreaKind;
using grid::CellId;
using grid::DiagonalOf;
using grid::QuartetId;

CellList ReplicationAssigner::Assign(const Point& p, Side side) const {
  const CellId native = grid_->Locate(p);
  CellList out;
  out.push_back(native);

  const AreaInfo area = grid_->ClassifyArea(p, native);
  if (area.kind == AreaKind::kNone) return out;

  const AgreementType tau = AgreementFor(side);
  const int cx = grid_->CellX(native);
  const int cy = grid_->CellY(native);

  if (area.kind == AreaKind::kCorner) {
    // Merged duplicate-prone area of the quartet at corner (qx, qy).
    const int i = grid_->PositionInQuartet(area.quartet, native);
    PASJOIN_DCHECK(i >= 0);
    MeDuPAr(area.quartet, p, tau, i, &out);
    // The point may additionally fall in a supplementary area - of its own
    // quartet or of the two neighboring quartets (the other ends of the two
    // near borders). Definition 4.10's supplementary areas are disjoint from
    // each *triad's* quadrant-shaped duplicate-prone area but can overlap
    // the quartet's merged (square-shaped) duplicate-prone area, so the own
    // quartet must be probed as well (resolved pseudocode ambiguity; see
    // DESIGN.md 5.1).
    SupAr(area.quartet, p, tau, i, &out);
    const int qx = grid_->QuartetX(area.quartet);
    const int qy = grid_->QuartetY(area.quartet);
    SupArAt(qx, qy - area.dy, p, tau, native, &out);
    SupArAt(qx - area.dx, qy, p, tau, native, &out);
    return out;
  }

  // Plain replication area: one near border; the pair agreement decides.
  PASJOIN_DCHECK(area.kind == AreaKind::kPlain);
  if (graph_->PairTypeToward(native, area.dx, area.dy) == tau) {
    out.PushBackUnique(grid_->CellIdOf(cx + area.dx, cy + area.dy));
  }
  // The point may lie in a supplementary area of the quartets at the two
  // endpoints of the crossed border (Algorithm 2, lines 16-19).
  if (area.dx != 0) {
    const int qx = cx + (area.dx > 0 ? 1 : 0);
    SupArAt(qx, cy, p, tau, native, &out);
    SupArAt(qx, cy + 1, p, tau, native, &out);
  } else {
    const int qy = cy + (area.dy > 0 ? 1 : 0);
    SupArAt(cx, qy, p, tau, native, &out);
    SupArAt(cx + 1, qy, p, tau, native, &out);
  }
  return out;
}

void ReplicationAssigner::MeDuPAr(QuartetId q, const Point& o,
                                  AgreementType tau, int i,
                                  CellList* out) const {
  const QuartetSubgraph& sub = graph_->Subgraph(q);
  // Side-adjacent cells within the quartet: replicate under an unmarked
  // agreement of the point's type (Algorithm 3, lines 2-4).
  const int side_adjacent[2] = {i ^ 1, i ^ 2};
  for (const int j : side_adjacent) {
    if (sub.type[i][j] == tau && !sub.edge[i][j].marked) {
      out->PushBackUnique(grid_->QuartetCellId(q, j));
    }
  }
  // Diagonal cell (common touching point only), Algorithm 3 lines 5-11.
  const int d = DiagonalOf(i);
  if (sub.type[i][d] == tau && !sub.edge[i][d].marked) {
    if (SquaredDistance(o, grid_->QuartetRefPoint(q)) <= eps2_) {
      // Within eps of the reference point: the point can form pairs with
      // native points of the diagonal cell.
      out->PushBackUnique(grid_->QuartetCellId(q, d));
    } else {
      // Beyond eps of the reference point the diagonal cell's native points
      // are unreachable, but a *marked* side agreement of the point's type
      // means its partners were redirected through the diagonal cell.
      for (const int j : side_adjacent) {
        if (sub.type[i][j] == tau && sub.edge[i][j].marked) {
          out->PushBackUnique(grid_->QuartetCellId(q, d));
          break;
        }
      }
    }
  }
}

void ReplicationAssigner::SupAr(QuartetId q, const Point& o,
                                AgreementType tau, int i,
                                CellList* out) const {
  // Supplementary-area test (Definition 4.10 / Algorithm 4): within 2*eps of
  // the quartet's reference point and within eps of a side-adjacent cell
  // whose duplicate-prone points of the *other* type were excluded from
  // replication into the native cell (marked e_ji of opposite type).
  if (SquaredDistance(o, grid_->QuartetRefPoint(q)) > 4.0 * eps2_) return;
  const QuartetSubgraph& sub = graph_->Subgraph(q);
  const int side_adjacent[2] = {i ^ 1, i ^ 2};
  for (const int j : side_adjacent) {
    const Rect j_rect = grid_->CellRect(grid_->QuartetCellId(q, j));
    if (SquaredMinDist(o, j_rect) > eps2_) continue;
    if (sub.type[j][i] == tau || !sub.edge[j][i].marked) continue;
    // The excluded partners were redirected to exactly one other quartet
    // cell; follow them there. Candidates: the remaining side neighbor `k`
    // and the diagonal cell `l` (Algorithm 4, lines 5-8).
    const int k = (j == (i ^ 1)) ? (i ^ 2) : (i ^ 1);
    const int l = DiagonalOf(i);
    if (sub.type[i][k] == tau && !sub.edge[i][k].marked &&
        sub.type[j][k] != tau && !sub.edge[j][k].marked) {
      out->PushBackUnique(grid_->QuartetCellId(q, k));
    } else if (sub.type[i][l] == tau && !sub.edge[i][l].marked &&
               sub.type[j][l] != tau && !sub.edge[j][l].marked) {
      out->PushBackUnique(grid_->QuartetCellId(q, l));
    }
  }
}

void ReplicationAssigner::SupArAt(int qx, int qy, const Point& o,
                                  AgreementType tau, CellId native,
                                  CellList* out) const {
  const QuartetId q = grid_->QuartetIdOf(qx, qy);
  if (q == grid::kInvalidId) return;
  const int i = grid_->PositionInQuartet(q, native);
  if (i < 0) return;
  SupAr(q, o, tau, i, out);
}

}  // namespace pasjoin::core
