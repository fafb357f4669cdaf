// Copyright 2026 The pasjoin Authors.
#include "core/replication.h"

#include "common/macros.h"

namespace pasjoin::core {

using agreements::AgreementGraph;
using agreements::AgreementType;
using agreements::QuartetSubgraph;
using grid::AreaInfo;
using grid::AreaKind;
using grid::CellCoord;
using grid::DiagonalOf;
using grid::QuartetId;

namespace {

// The route byte of a native cell at position i of a quartet, for the points
// of one type tau (docs/ALGORITHM.md §5); n = 0, 1 numbers the side cells
// i ^ 1 and i ^ 2.
//   bit n        Algorithm 3: replicate to side cell n;
//   bit 2        Algorithm 3: replicate to the diagonal cell, always;
//   bit 3        ... or when within eps of the reference point;
//   bits 4 + 2n  Algorithm 4: where the partners that side cell n withholds
//                from i went: nowhere, to the other side cell k, or to the
//                diagonal cell l.
constexpr uint8_t kDiagonalAlways = 1U << 2;
constexpr uint8_t kDiagonalNear = 1U << 3;
constexpr int kRedirectShift = 4;
constexpr uint8_t kRedirectBits = 0xF0;
constexpr uint8_t kRedirectNone = 0;
constexpr uint8_t kRedirectSide = 1;
constexpr uint8_t kRedirectDiagonal = 2;

/// Evaluates the graph predicates of Algorithms 3 and 4 for a point of type
/// `tau` whose native cell is at position `i` of quartet subgraph `sub`.
uint8_t CompileRoute(const QuartetSubgraph& sub, int i, AgreementType tau) {
  // e_ab replicates tau-points from a to b.
  auto open = [&](int a, int b) {
    return sub.type[a][b] == tau && !sub.edge[a][b].marked;
  };
  const int side_adjacent[2] = {i ^ 1, i ^ 2};
  const int d = DiagonalOf(i);
  uint8_t route = 0;
  bool marked_side = false;
  for (int n = 0; n < 2; ++n) {
    const int j = side_adjacent[n];
    // Algorithm 3, lines 2-4: side cells under an unmarked agreement.
    if (open(i, j)) route |= static_cast<uint8_t>(1U << n);
    marked_side |= sub.type[i][j] == tau && sub.edge[i][j].marked;
    // Algorithm 4: j withholds its duplicate-prone points of the other type
    // from i (marked e_ji of opposite type). They were redirected to
    // exactly one other quartet cell: the remaining side cell `k` or the
    // diagonal cell `l` (lines 5-8).
    if (sub.type[j][i] == tau || !sub.edge[j][i].marked) continue;
    const int k = side_adjacent[1 - n];
    uint8_t redirect = kRedirectNone;
    if (open(i, k) && sub.type[j][k] != tau && !sub.edge[j][k].marked) {
      redirect = kRedirectSide;
    } else if (open(i, d) && sub.type[j][d] != tau &&
               !sub.edge[j][d].marked) {
      redirect = kRedirectDiagonal;
    }
    route |= static_cast<uint8_t>(redirect << (kRedirectShift + 2 * n));
  }
  // Algorithm 3, lines 5-11: the diagonal cell under an unmarked agreement,
  // when within eps of the reference point - or regardless, when a marked
  // side agreement of the point's type redirected its partners through it.
  if (open(i, d)) {
    route |= kDiagonalNear;
    if (marked_side) route |= kDiagonalAlways;
  }
  return route;
}

std::array<uint8_t, 8> CompileRoutes(const QuartetSubgraph& sub) {
  std::array<uint8_t, 8> routes{};
  for (int i = 0; i < 4; ++i) {
    for (const AgreementType tau :
         {AgreementType::kReplicateR, AgreementType::kReplicateS}) {
      routes[static_cast<size_t>(i * 2 + static_cast<int>(tau))] =
          CompileRoute(sub, i, tau);
    }
  }
  return routes;
}

int32_t PairBits(AgreementType right, AgreementType up) {
  return static_cast<int32_t>(right) | (static_cast<int32_t>(up) << 1);
}

/// The cell at position `which` of the quartet at corner (qx, qy).
grid::CellId QuartetCell(const grid::Grid& grid, int qx, int qy, int which) {
  return grid.CellIdOf(qx - 1 + (which & 1), qy - 1 + (which >> 1));
}

/// The position of cell `native` in the quartet at corner (qx, qy).
int PositionIn(int qx, int qy, CellCoord native) {
  return (native.x - (qx - 1)) | ((native.y - (qy - 1)) << 1);
}

/// The quartet owning the corner square of a point in cell (cx, cy) with
/// border signs (dx, dy), both nonzero: its corner (qx, qy) and the
/// position i of the point's cell in it.
struct OwnQuartet {
  int qx;
  int qy;
  int i;
};

OwnQuartet OwnQuartetOf(int cx, int cy, int dx, int dy) {
  return OwnQuartet{cx + (dx > 0 ? 1 : 0), cy + (dy > 0 ? 1 : 0),
                    (dx < 0 ? 1 : 0) | (dy < 0 ? 2 : 0)};
}

/// Assign gives a point at most this many cells: its native cell, the
/// other three of its own quartet and two redirects from each neighbouring
/// quartet. So a full block of points fits a RoutedBlock.
constexpr size_t kMaxCellsPerPoint = 8;
static_assert(exec::RoutedBlock::kMaxInstances >=
              kMaxCellsPerPoint * exec::RoutedBlock::kMaxTuples);

/// One point's cell list in a RoutedBlock, written in place.
class BlockCells {
 public:
  explicit BlockCells(grid::CellId* first) : first_(first) {}

  size_t size() const { return n_; }
  void push_back(grid::CellId cell) { first_[n_++] = cell; }
  void PushBackUnique(grid::CellId cell) {
    for (size_t k = 0; k < n_; ++k) {
      if (first_[k] == cell) return;
    }
    PASJOIN_DCHECK(n_ < kMaxCellsPerPoint);
    first_[n_++] = cell;
  }

 private:
  grid::CellId* first_;
  size_t n_ = 0;
};

/// A quartet whose supplementary areas may hold a point: its corner and
/// the redirect bits of its route byte for the point's native cell, zero
/// when the corner is not interior.
struct SupArProbe {
  int qx;
  int qy;
  uint8_t redirects;
};

/// The route bytes pass 2 of AssignBatch reads for one point.
struct PointRoutes {
  /// kCorner: the own quartet's route byte. kPlain: 1 when the pair
  /// agreement replicates the point across its border.
  uint8_t route;
  /// The quartets of the point's supplementary-area tests, in Assign's
  /// order: the own quartet (kCorner only), then the two neighbours.
  std::array<SupArProbe, 3> sup;
};

}  // namespace

ReplicationAssigner::ReplicationAssigner(const grid::Grid* grid,
                                         const AgreementGraph* graph)
    : grid_(*grid),
      eps2_(grid->eps() * grid->eps()),
      default_routes_(CompileRoutes(graph->default_subgraph())),
      default_pairs_(PairBits(graph->default_type(), graph->default_type())),
      num_anchors_(graph->NumPairAnchors()) {
  const int quartets = graph->NumMaterialized();
  quartet_slot_.Reserve(static_cast<size_t>(quartets));
  routes_.reserve(static_cast<size_t>(quartets));
  for (int slot = 0; slot < quartets; ++slot) {
    quartet_slot_.Insert(graph->QuartetAt(slot), slot);
    routes_.push_back(CompileRoutes(graph->SubgraphAt(slot)));
  }
  anchor_pairs_.Reserve(static_cast<size_t>(num_anchors_));
  for (int slot = 0; slot < num_anchors_; ++slot) {
    const AgreementGraph::AnchorPairs& a = graph->AnchorAt(slot);
    anchor_pairs_.Insert(a.cell, PairBits(a.right, a.up));
  }
}

uint8_t ReplicationAssigner::RouteOf(QuartetId q, int i, int s) const {
  const int32_t slot = quartet_slot_.Find(q);
  const Routes& routes = slot == FlatIndex::kAbsent
                             ? default_routes_
                             : routes_[static_cast<size_t>(slot)];
  return routes[static_cast<size_t>(i * 2 + s)];
}

CellList ReplicationAssigner::Assign(const Point& p, Side side) const {
  const CellCoord c = grid_.LocateCell(p);
  CellList out;
  out.push_back(grid_.CellIdOf(c.x, c.y));

  const AreaInfo area = grid_.ClassifyArea(p, c);
  if (area.kind == AreaKind::kNone) return out;

  // The point's agreement type, as route index and pair bit.
  const int s = static_cast<int>(agreements::AgreementFor(side));

  if (area.kind == AreaKind::kCorner) {
    // Merged duplicate-prone area of the quartet at corner (qx, qy), in
    // which the native cell has position i.
    const auto [qx, qy, i] = OwnQuartetOf(c.x, c.y, area.dx, area.dy);
    const uint8_t route = RouteOf(area.quartet, i, s);
    const double ref_dist2 = SquaredDistance(p, grid_.CornerPoint(qx, qy));
    // Algorithm 3.
    for (int n = 0; n < 2; ++n) {
      if ((route & (1U << n)) != 0) {
        out.PushBackUnique(QuartetCell(grid_, qx, qy, i ^ (n + 1)));
      }
    }
    if ((route & kDiagonalAlways) != 0 ||
        ((route & kDiagonalNear) != 0 && ref_dist2 <= eps2_)) {
      out.PushBackUnique(QuartetCell(grid_, qx, qy, DiagonalOf(i)));
    }
    // The point may additionally fall in a supplementary area - of its own
    // quartet or of the two neighboring quartets (the other ends of the two
    // near borders). Definition 4.10's supplementary areas are disjoint from
    // each *triad's* quadrant-shaped duplicate-prone area but can overlap
    // the quartet's merged (square-shaped) duplicate-prone area, so the own
    // quartet must be probed as well (resolved pseudocode ambiguity; see
    // DESIGN.md 5.1).
    if (ref_dist2 <= 4.0 * eps2_) FollowRedirects(route, qx, qy, i, p, &out);
    SupArAt(qx, qy - area.dy, c, p, s, &out);
    SupArAt(qx - area.dx, qy, c, p, s, &out);
    return out;
  }

  // Plain replication area: one near border; the pair agreement decides.
  PASJOIN_DCHECK(area.kind == AreaKind::kPlain);
  const grid::CellId anchor = grid_.CellIdOf(c.x + (area.dx < 0 ? -1 : 0),
                                             c.y + (area.dy < 0 ? -1 : 0));
  const int32_t found = anchor_pairs_.Find(anchor);
  const int32_t pairs = found == FlatIndex::kAbsent ? default_pairs_ : found;
  if (((pairs >> (area.dx != 0 ? 0 : 1)) & 1) == s) {
    out.PushBackUnique(grid_.CellIdOf(c.x + area.dx, c.y + area.dy));
  }
  // The point may lie in a supplementary area of the quartets at the two
  // endpoints of the crossed border (Algorithm 2, lines 16-19).
  if (area.dx != 0) {
    const int qx = c.x + (area.dx > 0 ? 1 : 0);
    SupArAt(qx, c.y, c, p, s, &out);
    SupArAt(qx, c.y + 1, c, p, s, &out);
  } else {
    const int qy = c.y + (area.dy > 0 ? 1 : 0);
    SupArAt(c.x, qy, c, p, s, &out);
    SupArAt(c.x + 1, qy, c, p, s, &out);
  }
  return out;
}

void ReplicationAssigner::AssignBatch(std::span<const Point> points,
                                      Side side,
                                      exec::RoutedBlock* out) const {
  constexpr size_t kMax = exec::RoutedBlock::kMaxTuples;
  const size_t n = points.size();
  PASJOIN_DCHECK(n <= kMax);
  const int s = static_cast<int>(agreements::AgreementFor(side));

  // Pass 1: each point's cell and border signs, with LocateCell's and
  // NearBorders' expressions, so every border and clamp decision is
  // Assign's.
  std::array<int, kMax> cx{};
  std::array<int, kMax> cy{};
  std::array<int, kMax> dx{};
  std::array<int, kMax> dy{};
  for (size_t k = 0; k < n; ++k) {
    const CellCoord c = grid_.LocateCell(points[k]);
    const grid::BorderSigns near = grid_.NearBorders(points[k], c);
    cx[k] = c.x;
    cy[k] = c.y;
    dx[k] = near.dx;
    dy[k] = near.dy;
  }

  // Pass 2: every route byte the block's points need - the own quartet's
  // or the pair anchor's, and those of the two neighbouring quartets whose
  // supplementary areas may hold the point. No read waits on another's
  // outcome.
  std::array<PointRoutes, kMax> routes{};
  const auto sup_ar = [&](int qx, int qy, CellCoord native) {
    const QuartetId q = grid_.QuartetIdOf(qx, qy);
    if (q == grid::kInvalidId) return SupArProbe{qx, qy, 0};
    const uint8_t route = RouteOf(q, PositionIn(qx, qy, native), s);
    return SupArProbe{qx, qy, static_cast<uint8_t>(route & kRedirectBits)};
  };
  for (size_t k = 0; k < n; ++k) {
    const CellCoord c{cx[k], cy[k]};
    PointRoutes& r = routes[k];
    if (dx[k] != 0 && dy[k] != 0) {
      const auto [qx, qy, i] = OwnQuartetOf(c.x, c.y, dx[k], dy[k]);
      r.route = RouteOf(grid_.QuartetIdOf(qx, qy), i, s);
      const auto own = static_cast<uint8_t>(r.route & kRedirectBits);
      r.sup = {SupArProbe{qx, qy, own}, sup_ar(qx, qy - dy[k], c),
               sup_ar(qx - dx[k], qy, c)};
    } else if (dx[k] != 0 || dy[k] != 0) {
      const grid::CellId anchor = grid_.CellIdOf(
          c.x + (dx[k] < 0 ? -1 : 0), c.y + (dy[k] < 0 ? -1 : 0));
      const int32_t found = anchor_pairs_.Find(anchor);
      const int32_t pairs =
          found == FlatIndex::kAbsent ? default_pairs_ : found;
      r.route = ((pairs >> (dx[k] != 0 ? 0 : 1)) & 1) == s ? 1 : 0;
      if (dx[k] != 0) {
        const int qx = c.x + (dx[k] > 0 ? 1 : 0);
        r.sup = {SupArProbe{}, sup_ar(qx, c.y, c),
                 sup_ar(qx, c.y + 1, c)};
      } else {
        const int qy = c.y + (dy[k] > 0 ? 1 : 0);
        r.sup = {SupArProbe{}, sup_ar(c.x, qy, c),
                 sup_ar(c.x + 1, qy, c)};
      }
    }
  }

  // Pass 3: Assign's geometric tests, in its order, on the loaded bytes.
  size_t end = 0;
  for (size_t k = 0; k < n; ++k) {
    const Point& p = points[k];
    const PointRoutes& r = routes[k];
    BlockCells cells(out->part.data() + end);
    cells.push_back(grid_.CellIdOf(cx[k], cy[k]));
    if (dx[k] != 0 && dy[k] != 0) {
      const auto [qx, qy, i] = OwnQuartetOf(cx[k], cy[k], dx[k], dy[k]);
      const double ref_dist2 = SquaredDistance(p, grid_.CornerPoint(qx, qy));
      for (int m = 0; m < 2; ++m) {
        if ((r.route & (1U << m)) != 0) {
          cells.PushBackUnique(QuartetCell(grid_, qx, qy, i ^ (m + 1)));
        }
      }
      if ((r.route & kDiagonalAlways) != 0 ||
          ((r.route & kDiagonalNear) != 0 && ref_dist2 <= eps2_)) {
        cells.PushBackUnique(QuartetCell(grid_, qx, qy, DiagonalOf(i)));
      }
    } else if (r.route != 0) {
      cells.PushBackUnique(grid_.CellIdOf(cx[k] + dx[k], cy[k] + dy[k]));
    }
    // Algorithm 4 on the own quartet (as Assign's FollowRedirects call)
    // and the two neighbours (as SupArAt), skipping a quartet without
    // redirects, whose test could add nothing.
    for (const SupArProbe& sup : r.sup) {
      if (sup.redirects == 0 ||
          SquaredDistance(p, grid_.CornerPoint(sup.qx, sup.qy)) >
              4.0 * eps2_) {
        continue;
      }
      FollowRedirects(sup.redirects, sup.qx, sup.qy,
                      PositionIn(sup.qx, sup.qy, CellCoord{cx[k], cy[k]}), p,
                      &cells);
    }
    end += cells.size();
    out->end[k] = end;
  }
}

template <typename Cells>
void ReplicationAssigner::FollowRedirects(uint8_t route, int qx, int qy,
                                          int i, const Point& p,
                                          Cells* out) const {
  // Supplementary-area test (Definition 4.10 / Algorithm 4): within 2*eps of
  // the quartet's reference point (the caller's test) and within eps of the
  // side-adjacent donor cell j whose withheld partners the route redirects.
  for (int n = 0; n < 2; ++n) {
    const unsigned redirect = (route >> (kRedirectShift + 2 * n)) & 3U;
    if (redirect == kRedirectNone) continue;
    const int j = i ^ (n + 1);
    const Rect j_rect =
        grid_.CellRectAt(qx - 1 + (j & 1), qy - 1 + (j >> 1));
    if (SquaredMinDist(p, j_rect) > eps2_) continue;
    const int to = redirect == kRedirectSide ? i ^ (2 - n) : DiagonalOf(i);
    out->PushBackUnique(QuartetCell(grid_, qx, qy, to));
  }
}

void ReplicationAssigner::SupArAt(int qx, int qy, CellCoord native,
                                  const Point& p, int s,
                                  CellList* out) const {
  const QuartetId q = grid_.QuartetIdOf(qx, qy);
  if (q == grid::kInvalidId) return;
  if (SquaredDistance(p, grid_.CornerPoint(qx, qy)) > 4.0 * eps2_) return;
  const int i = PositionIn(qx, qy, native);
  PASJOIN_DCHECK(i >= 0 && i < 4);
  FollowRedirects(RouteOf(q, i, s), qx, qy, i, p, out);
}

size_t AdaptiveRouter::Route(std::span<const Tuple> tuples, Side side,
                             exec::RoutedBlock* out) const {
  const size_t n = tuples.size();
  PASJOIN_DCHECK(n <= exec::RoutedBlock::kMaxTuples);
  std::array<Point, exec::RoutedBlock::kMaxTuples> points;
  for (size_t k = 0; k < n; ++k) points[k] = tuples[k].pt;
  assigner_->AssignBatch(std::span<const Point>(points.data(), n), side, out);
  const size_t instances = n == 0 ? 0 : out->end[n - 1];
  for (size_t j = 0; j < instances; ++j) {
    out->owner[j] = placement_->OwnerOf(out->part[j]);
  }
  return n;
}

}  // namespace pasjoin::core
