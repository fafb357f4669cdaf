// Copyright 2026 The pasjoin Authors.
#include "agreements/agreement_graph.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/macros.h"
#include "common/rng.h"

namespace pasjoin::agreements {

using grid::CellId;
using grid::DirIndex;
using grid::Grid;
using grid::GridStats;
using grid::QuartetId;

const char* MarkingOrderName(MarkingOrder order) {
  switch (order) {
    case MarkingOrder::kPaper:
      return "paper";
    case MarkingOrder::kWeightDescending:
      return "weight-desc";
    case MarkingOrder::kIndexOrder:
      return "index";
  }
  return "?";
}

const char* PolicyName(Policy p) {
  switch (p) {
    case Policy::kLPiB:
      return "LPiB";
    case Policy::kDiff:
      return "DIFF";
    case Policy::kUniformR:
      return "UNI(R)";
    case Policy::kUniformS:
      return "UNI(S)";
  }
  return "?";
}

namespace {

/// The counts of `cell`; all zero when no sampled point fell in it.
const grid::CellCounts& CountsOf(const GridStats& stats, CellId cell) {
  static const grid::CellCounts kUnsampled;
  const grid::CellCounts* c = stats.Find(cell);
  return c != nullptr ? *c : kUnsampled;
}

/// The DIFF criterion (Section 4.3); also the LPiB tie fallback. The cell
/// with the greater |#R - #S| decides; an exact tie is resolved by the
/// smaller CellId so the result is independent of argument order.
AgreementType DecideByDiff(const grid::CellCounts& ca,
                           const grid::CellCounts& cb, CellId a, CellId b,
                           AgreementType tie_break) {
  // The agreement replicates the decider's minority set.
  const int64_t ra = ca.total[0];
  const int64_t sa = ca.total[1];
  const int64_t rb = cb.total[0];
  const int64_t sb = cb.total[1];
  const int64_t diff_a = std::llabs(ra - sa);
  const int64_t diff_b = std::llabs(rb - sb);
  // An exact diff tie is resolved by the smaller CellId, not by argument
  // order, so that DecideByDiff(a, b) == DecideByDiff(b, a).
  const bool a_decides = diff_a != diff_b ? diff_a > diff_b : a < b;
  const int64_t decider_r = a_decides ? ra : rb;
  const int64_t decider_s = a_decides ? sa : sb;
  if (decider_r < decider_s) return AgreementType::kReplicateR;
  if (decider_s < decider_r) return AgreementType::kReplicateS;
  return tie_break;
}

}  // namespace

AgreementGraph::AgreementGraph(const Grid* grid, Policy policy,
                               AgreementType tie_break)
    : grid_(grid), policy_(policy), tie_break_(tie_break) {
  // Two unsampled cells: every policy sees only zeros.
  const grid::CellCounts none;
  default_type_ = DecidePairType(none, none, 0, 1, DirIndex(1, 0));
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) default_.type[i][j] = default_type_;
  }
}

AgreementType AgreementGraph::DecidePairType(const GridStats& stats, CellId a,
                                             CellId b, int dir_ab) const {
  return DecidePairType(CountsOf(stats, a), CountsOf(stats, b), a, b, dir_ab);
}

AgreementType AgreementGraph::DecidePairType(const grid::CellCounts& ca,
                                             const grid::CellCounts& cb,
                                             CellId a, CellId b,
                                             int dir_ab) const {
  switch (policy_) {
    case Policy::kUniformR:
      return AgreementType::kReplicateR;
    case Policy::kUniformS:
      return AgreementType::kReplicateS;
    case Policy::kLPiB: {
      // Replicate the set with the fewest replication candidates in the
      // boundary areas of the two cells; an uninformative (tied) sample
      // defers to the DIFF criterion.
      int dx, dy;
      grid::DirOffset(dir_ab, &dx, &dy);
      const int dir_ba = DirIndex(-dx, -dy);
      const uint64_t cand_r =
          uint64_t{ca.band[0][dir_ab]} + cb.band[0][dir_ba];
      const uint64_t cand_s =
          uint64_t{ca.band[1][dir_ab]} + cb.band[1][dir_ba];
      if (cand_r < cand_s) return AgreementType::kReplicateR;
      if (cand_s < cand_r) return AgreementType::kReplicateS;
      return DecideByDiff(ca, cb, a, b, tie_break_);
    }
    case Policy::kDiff:
      return DecideByDiff(ca, cb, a, b, tie_break_);
  }
  return tie_break_;
}

AgreementGraph AgreementGraph::PrepareBuild(const Grid& grid,
                                            const GridStats& stats,
                                            Policy policy,
                                            AgreementType tie_break) {
  // Every pair that touches a sampled cell (x, y) is anchored at (x, y),
  // (x-1, y) or (x, y-1); every quartet that does sits at one of its four
  // corners. Slots follow the sample's order.
  AgreementGraph g(&grid, policy, tie_break);
  for (const grid::CellCounts& sampled : stats.Sampled()) {
    const CellId c = sampled.cell;
    const int x = grid.CellX(c);
    const int y = grid.CellY(c);
    g.MutableAnchor(c);
    if (x > 0) g.MutableAnchor(c - 1);
    if (y > 0) g.MutableAnchor(c - grid.nx());
    for (const int qy : {y, y + 1}) {
      for (const int qx : {x, x + 1}) {
        const QuartetId q = grid.QuartetIdOf(qx, qy);
        const auto slot = static_cast<int32_t>(g.quartets_.size());
        if (q == grid::kInvalidId) continue;
        if (g.slot_of_quartet_.Insert(q, slot) == slot) {
          g.quartets_.push_back(q);
        }
      }
    }
  }
  // Filled by MaterializeSubgraphRange.
  g.subgraphs_.resize(g.quartets_.size());
  return g;
}

int64_t AgreementGraph::NumDecidedPairs() const {
  int64_t n = 0;
  for (const AnchorPairs& a : anchors_) {
    n += (grid_->CellX(a.cell) + 1 < grid_->nx()) +
         (grid_->CellY(a.cell) + 1 < grid_->ny());
  }
  return n;
}

void AgreementGraph::DecidePairRange(const GridStats& stats, int begin,
                                     int end) {
  // Build step 1: an anchor (x, y) decides (x, y)-(x+1, y) and
  // (x, y)-(x, y+1), where those cells exist.
  const Grid& grid = *grid_;
  PASJOIN_DCHECK(begin >= 0 && begin <= end && end <= NumPairAnchors());
  for (int i = begin; i < end; ++i) {
    AnchorPairs& pairs = anchors_[static_cast<size_t>(i)];
    const CellId a = pairs.cell;
    const grid::CellCounts& ca = CountsOf(stats, a);
    if (grid.CellX(a) + 1 < grid.nx()) {
      pairs.right = DecidePairType(ca, CountsOf(stats, a + 1), a, a + 1,
                                   DirIndex(1, 0));
    }
    if (grid.CellY(a) + 1 < grid.ny()) {
      const CellId up = a + grid.nx();
      pairs.up = DecidePairType(ca, CountsOf(stats, up), a, up, DirIndex(0, 1));
    }
  }
}

void AgreementGraph::MaterializeSubgraphRange(const GridStats& stats,
                                              int begin, int end) {
  // Build step 2: copy the pair types of the quartet's four side pairs,
  // decide its two diagonal pairs, and compute edge weights.
  const Grid& grid = *grid_;
  PASJOIN_DCHECK(begin >= 0 && begin <= end && end <= NumMaterialized());
  for (int slot = begin; slot < end; ++slot) {
    const QuartetId q = quartets_[static_cast<size_t>(slot)];
    QuartetSubgraph& sub = subgraphs_[static_cast<size_t>(slot)];
    const CellId sw = grid.QuartetCellId(q, grid::kSW);
    const CellId cells[4] = {sw, sw + 1, sw + grid.nx(), sw + grid.nx() + 1};
    const grid::CellCounts* counts[4];
    for (int which = 0; which < 4; ++which) {
      counts[which] = &CountsOf(stats, cells[which]);
    }
    // Pair types. Positions: kSW=0, kSE=1, kNW=2, kNE=3.
    auto set_pair = [&sub](int i, int j, AgreementType t) {
      sub.type[i][j] = t;
      sub.type[j][i] = t;
    };
    set_pair(grid::kSW, grid::kSE, PairTypeToward(cells[grid::kSW], 1, 0));
    set_pair(grid::kNW, grid::kNE, PairTypeToward(cells[grid::kNW], 1, 0));
    set_pair(grid::kSW, grid::kNW, PairTypeToward(cells[grid::kSW], 0, 1));
    set_pair(grid::kSE, grid::kNE, PairTypeToward(cells[grid::kSE], 0, 1));
    // Diagonal pairs, owned by this quartet alone.
    set_pair(grid::kSW, grid::kNE,
             DecidePairType(*counts[grid::kSW], *counts[grid::kNE],
                            cells[grid::kSW], cells[grid::kNE],
                            DirIndex(1, 1)));
    set_pair(grid::kSE, grid::kNW,
             DecidePairType(*counts[grid::kSE], *counts[grid::kNW],
                            cells[grid::kSE], cells[grid::kNW],
                            DirIndex(-1, 1)));

    // Edge weights (Example 4.4): for e_ij of type tau, weight = number of
    // tau-side replication candidates in i toward j, times the number of
    // points of the other side in j.
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        if (i == j) continue;
        const int dir = DirIndex((j & 1) - (i & 1), (j >> 1) - (i >> 1));
        const int rep = static_cast<int>(ReplicatedSide(sub.type[i][j]));
        sub.edge[i][j].weight =
            static_cast<float>(counts[i]->band[rep][dir]) *
            static_cast<float>(counts[j]->total[1 - rep]);
      }
    }
  }
}

AgreementGraph AgreementGraph::Build(const Grid& grid, const GridStats& stats,
                                     Policy policy, AgreementType tie_break) {
  AgreementGraph g = PrepareBuild(grid, stats, policy, tie_break);
  g.DecidePairRange(stats, 0, g.NumPairAnchors());
  g.MaterializeSubgraphRange(stats, 0, g.NumMaterialized());
  return g;
}

AgreementType AgreementGraph::PairTypeToward(CellId cell, int dx, int dy) const {
  PASJOIN_DCHECK((dx == 0) != (dy == 0));
  const CellId anchor =
      dx < 0 ? cell - 1 : (dy < 0 ? cell - grid_->nx() : cell);
  PASJOIN_DCHECK(grid_->HasCell(grid_->CellX(cell) + dx,
                                grid_->CellY(cell) + dy));
  const int32_t slot = slot_of_anchor_.Find(anchor);
  if (slot == FlatIndex::kAbsent) return default_type_;
  const AnchorPairs& pairs = anchors_[static_cast<size_t>(slot)];
  return dx != 0 ? pairs.right : pairs.up;
}

int32_t AgreementGraph::Materialize(QuartetId q) {
  PASJOIN_CHECK(q >= 0 && q < grid_->num_quartets());
  const int32_t slot =
      slot_of_quartet_.Insert(q, static_cast<int32_t>(quartets_.size()));
  if (static_cast<size_t>(slot) < quartets_.size()) return slot;
  // Every cell of q is unsampled, and an override of one of its side pairs
  // would have materialized it: it is the default subgraph.
  quartets_.push_back(q);
  subgraphs_.push_back(default_);
  return slot;
}

AgreementGraph::AnchorPairs* AgreementGraph::MutableAnchor(CellId cell) {
  const int32_t slot =
      slot_of_anchor_.Insert(cell, static_cast<int32_t>(anchors_.size()));
  if (static_cast<size_t>(slot) == anchors_.size()) {
    anchors_.push_back({cell, default_type_, default_type_});
  }
  return &anchors_[static_cast<size_t>(slot)];
}

namespace {

/// True when the pair (i, j) is a diagonal pair of the quartet.
inline bool IsDiagonalPair(int i, int j) { return j == grid::DiagonalOf(i); }

struct EdgeRef {
  int i;
  int j;
  float weight;
  bool diagonal;
};

}  // namespace

void AgreementGraph::MarkSubgraph(QuartetSubgraph* sub, MarkingOrder order) {
  // Uniform subgraphs (a single agreement type) contain no mixed triangle
  // and need no marking (Section 4.4); this covers the vast majority of
  // quartets in sparsely populated regions, where every pair defaults to
  // the tie-break type.
  const AgreementType first = sub->type[0][1];
  bool uniform = true;
  for (int i = 0; i < 4 && uniform; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      if (sub->type[i][j] != first) {
        uniform = false;
        break;
      }
    }
  }
  if (uniform) return;

  // Collect the 12 directed edges, ordered: diagonal-pair edges first (their
  // marking needs no supplementary replication, Corollary 4.9), then side
  // edges; descending weight within each group; ties by (i, j) for
  // determinism (Section 5.2).
  std::array<EdgeRef, 12> edges;
  int n = 0;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      if (i == j) continue;
      edges[n++] = EdgeRef{i, j, sub->edge[i][j].weight, IsDiagonalPair(i, j)};
    }
  }
  std::sort(edges.begin(), edges.end(),
            [order](const EdgeRef& a, const EdgeRef& b) {
              if (order == MarkingOrder::kPaper && a.diagonal != b.diagonal) {
                return a.diagonal;
              }
              if (order != MarkingOrder::kIndexOrder && a.weight != b.weight) {
                return a.weight > b.weight;
              }
              if (a.i != b.i) return a.i < b.i;
              return a.j < b.j;
            });

  for (const EdgeRef& e : edges) {
    EdgeState& eij = sub->edge[e.i][e.j];
    if (eij.locked) continue;
    // The two triangles containing edge (i, j) are completed by the two
    // remaining cells.
    int ks[2];
    int kn = 0;
    for (int k = 0; k < 4; ++k) {
      if (k != e.i && k != e.j) ks[kn++] = k;
    }
    PASJOIN_DCHECK(kn == 2);
    // Eligibility (Algorithm 1 lines 5-6): the triangle carries both
    // agreement types with i as the problem vertex, and neither edge that
    // would be locked is already marked.
    auto eligible = [&](int k) {
      return sub->type[e.i][k] == sub->type[e.i][e.j] &&
             sub->type[e.j][k] != sub->type[e.i][e.j] &&
             !sub->edge[e.j][k].marked && !sub->edge[e.i][k].marked;
    };
    const bool ok0 = eligible(ks[0]);
    const bool ok1 = eligible(ks[1]);
    if (!ok0 && !ok1) continue;
    int k;
    if (ok0 && ok1) {
      // Both triangles eligible: pick the one whose to-be-locked edges have
      // the largest weight sum (Section 5.2, special case).
      const float sum0 =
          sub->edge[e.j][ks[0]].weight + sub->edge[e.i][ks[0]].weight;
      const float sum1 =
          sub->edge[e.j][ks[1]].weight + sub->edge[e.i][ks[1]].weight;
      k = sum0 >= sum1 ? ks[0] : ks[1];
    } else {
      k = ok0 ? ks[0] : ks[1];
    }
    eij.marked = true;
    sub->edge[e.j][k].locked = true;
    sub->edge[e.i][k].locked = true;
  }
}

void AgreementGraph::MarkRange(int begin, int end, MarkingOrder order) {
  PASJOIN_DCHECK(begin >= 0 && begin <= end && end <= NumMaterialized());
  for (int slot = begin; slot < end; ++slot) {
    MarkSubgraph(&subgraphs_[static_cast<size_t>(slot)], order);
  }
}

void AgreementGraph::RunDuplicateFreeMarking(MarkingOrder order) {
  if (marking_done_) return;
  MarkRange(0, NumMaterialized(), order);
  marking_done_ = true;
}

void AgreementGraph::SetQuartetPairType(int qx, int qy, int a, int b,
                                        AgreementType t) {
  PASJOIN_CHECK(!marking_done_);
  const QuartetId q = grid_->QuartetIdOf(qx, qy);
  if (q == grid::kInvalidId) return;
  QuartetSubgraph* sub = MutableSubgraph(q);
  sub->type[a][b] = t;
  sub->type[b][a] = t;
}

void AgreementGraph::SetHorizontalPairType(int cx, int cy, AgreementType t) {
  PASJOIN_CHECK(cx >= 0 && cx < grid_->nx() - 1 && cy >= 0 && cy < grid_->ny());
  PASJOIN_CHECK(!marking_done_);
  MutableAnchor(grid_->CellIdOf(cx, cy))->right = t;
  // Update the subgraph copies in the quartets below and above the pair.
  SetQuartetPairType(cx + 1, cy, grid::kNW, grid::kNE, t);
  SetQuartetPairType(cx + 1, cy + 1, grid::kSW, grid::kSE, t);
}

void AgreementGraph::SetVerticalPairType(int cx, int cy, AgreementType t) {
  PASJOIN_CHECK(cx >= 0 && cx < grid_->nx() && cy >= 0 && cy < grid_->ny() - 1);
  PASJOIN_CHECK(!marking_done_);
  MutableAnchor(grid_->CellIdOf(cx, cy))->up = t;
  // Update the subgraph copies in the quartets left and right of the pair.
  SetQuartetPairType(cx, cy + 1, grid::kSE, grid::kNE, t);
  SetQuartetPairType(cx + 1, cy + 1, grid::kSW, grid::kNW, t);
}

void AgreementGraph::SetDiagonalPairType(QuartetId q, int which_diagonal,
                                         AgreementType t) {
  PASJOIN_CHECK(q >= 0 && q < grid_->num_quartets());
  const int a = which_diagonal == 0 ? grid::kSW : grid::kSE;
  SetQuartetPairType(grid_->QuartetX(q), grid_->QuartetY(q), a,
                     grid::DiagonalOf(a), t);
}

void AgreementGraph::RandomizeForTesting(uint64_t seed) {
  PASJOIN_CHECK(!marking_done_);
  Rng rng(seed);
  auto flip = [&rng](AgreementType t) {
    if (!rng.NextBernoulli(0.5)) return t;
    return t == AgreementType::kReplicateR ? AgreementType::kReplicateS
                                           : AgreementType::kReplicateR;
  };
  for (int cy = 0; cy < grid_->ny(); ++cy) {
    for (int cx = 0; cx + 1 < grid_->nx(); ++cx) {
      SetHorizontalPairType(
          cx, cy, flip(PairTypeToward(grid_->CellIdOf(cx, cy), 1, 0)));
    }
  }
  for (int cy = 0; cy + 1 < grid_->ny(); ++cy) {
    for (int cx = 0; cx < grid_->nx(); ++cx) {
      SetVerticalPairType(
          cx, cy, flip(PairTypeToward(grid_->CellIdOf(cx, cy), 0, 1)));
    }
  }
  for (QuartetId q = 0; q < grid_->num_quartets(); ++q) {
    QuartetSubgraph& sub = *MutableSubgraph(q);
    SetDiagonalPairType(q, 0, flip(sub.type[grid::kSW][grid::kNE]));
    SetDiagonalPairType(q, 1, flip(sub.type[grid::kSE][grid::kNW]));
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        if (i != j) {
          sub.edge[i][j].weight =
              static_cast<float>(rng.NextBounded(1000));
        }
      }
    }
  }
}

size_t AgreementGraph::CountEdges(bool EdgeState::*flag) const {
  // Default subgraphs have neither marked nor locked edges.
  size_t n = 0;
  for (const QuartetSubgraph& sub : subgraphs_) {
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) n += i != j && sub.edge[i][j].*flag;
    }
  }
  return n;
}

}  // namespace pasjoin::agreements
