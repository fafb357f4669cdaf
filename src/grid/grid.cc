// Copyright 2026 The pasjoin Authors.
#include "grid/grid.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/macros.h"

namespace pasjoin::grid {

void SideAdjacentOf(int c, int* a, int* b) {
  // Flipping the x-bit gives the horizontal neighbor, the y-bit the vertical.
  *a = c ^ 1;
  *b = c ^ 2;
}

Grid::Grid(const Rect& mbr, double eps, int nx, int ny)
    : mbr_(mbr),
      eps_(eps),
      nx_(nx),
      ny_(ny),
      cell_w_(mbr.Width() / nx),
      cell_h_(mbr.Height() / ny) {}

Result<Grid> Grid::Make(const Rect& mbr, double eps, double resolution_factor) {
  if (!(resolution_factor >= 2.0)) {
    return Status::InvalidArgument(
        "resolution factor must be >= 2 (cells must exceed 2*eps, Sect. 4.1)");
  }
  Result<Grid> grid = MakeForBaseline(mbr, eps, resolution_factor);
  if (!grid.ok()) return grid;
  int nx = grid.value().nx_;
  int ny = grid.value().ny_;
  // The paper requires cell sides *strictly* greater than 2*eps; shrink the
  // cell count until that holds (relevant when the MBR divides exactly).
  while (nx > 1 && mbr.Width() / nx <= 2.0 * eps) --nx;
  while (ny > 1 && mbr.Height() / ny <= 2.0 * eps) --ny;
  if (mbr.Width() / nx <= 2.0 * eps || mbr.Height() / ny <= 2.0 * eps) {
    return Status::InvalidArgument(
        "MBR too small relative to eps: cannot build cells larger than 2*eps");
  }
  return Grid(mbr, eps, nx, ny);
}

Result<Grid> Grid::MakeForBaseline(const Rect& mbr, double eps,
                                   double resolution_factor) {
  if (!(resolution_factor > 0.0)) {
    return Status::InvalidArgument("resolution factor must be positive");
  }
  if (!(eps > 0.0) || !std::isfinite(eps)) {
    return Status::InvalidArgument("eps must be positive and finite");
  }
  if (!(mbr.Width() > 0.0) || !(mbr.Height() > 0.0)) {
    return Status::InvalidArgument("MBR must have positive extent: " +
                                   mbr.ToString());
  }
  // The cell counts are computed in double: a tiny eps must not wrap the int
  // cast, and a grid whose cells do not all get a CellId is rejected.
  const double target = resolution_factor * eps;
  const double nx = std::max(1.0, std::floor(mbr.Width() / target));
  const double ny = std::max(1.0, std::floor(mbr.Height() / target));
  if (!(nx * ny <= static_cast<double>(std::numeric_limits<CellId>::max()))) {
    return Status::InvalidArgument(
        "grid has more cells than CellId can number: eps is too small for "
        "the MBR");
  }
  return Grid(mbr, eps, static_cast<int>(nx), static_cast<int>(ny));
}

CellRange Grid::CellsCovering(const Rect& region) const {
  return CellRange{ClampedCell((region.min_x - mbr_.min_x) / cell_w_, nx_),
                   ClampedCell((region.min_y - mbr_.min_y) / cell_h_, ny_),
                   ClampedCell((region.max_x - mbr_.min_x) / cell_w_, nx_),
                   ClampedCell((region.max_y - mbr_.min_y) / cell_h_, ny_)};
}

Rect Grid::CellRect(CellId id) const {
  PASJOIN_DCHECK(id >= 0 && id < num_cells());
  return CellRectAt(CellX(id), CellY(id));
}

int Grid::PositionInQuartet(QuartetId q, CellId cell) const {
  for (int which = 0; which < 4; ++which) {
    if (QuartetCellId(q, which) == cell) return which;
  }
  return -1;
}

AreaInfo Grid::ClassifyArea(const Point& p, CellCoord c) const {
  const int cx = c.x;
  const int cy = c.y;
  // Distance to each internal border; borders on the grid boundary never
  // trigger replication (there is no neighbor behind them).
  const BorderSigns near = NearBorders(p, c);
  AreaInfo info;
  info.dx = near.dx;
  info.dy = near.dy;
  if (info.dx == 0 && info.dy == 0) {
    info.kind = AreaKind::kNone;
    return info;
  }
  if (info.dx != 0 && info.dy != 0) {
    info.kind = AreaKind::kCorner;
    const int qx = cx + (info.dx > 0 ? 1 : 0);
    const int qy = cy + (info.dy > 0 ? 1 : 0);
    info.quartet = QuartetIdOf(qx, qy);
    // Both neighbors exist, hence the corner touches 4 cells and is interior.
    PASJOIN_DCHECK(info.quartet != kInvalidId);
    return info;
  }
  info.kind = AreaKind::kPlain;
  return info;
}

std::string Grid::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "grid %dx%d, cell %.6gx%.6g, eps %.6g", nx_,
                ny_, cell_w_, cell_h_, eps_);
  return std::string(buf);
}

SmallVector<CellId, 4> CellsWithinEps(const Grid& grid, const Point& p) {
  SmallVector<CellId, 4> out;
  const CellId native = grid.Locate(p);
  out.push_back(native);
  const double eps = grid.eps();
  const double eps2 = eps * eps;
  const CellRange range =
      grid.CellsCovering(Rect{p.x - eps, p.y - eps, p.x + eps, p.y + eps});
  for (int cy = range.y_lo; cy <= range.y_hi; ++cy) {
    for (int cx = range.x_lo; cx <= range.x_hi; ++cx) {
      const CellId cell = grid.CellIdOf(cx, cy);
      if (cell == native) continue;
      if (SquaredMinDist(p, grid.CellRect(cell)) <= eps2) out.push_back(cell);
    }
  }
  return out;
}

}  // namespace pasjoin::grid
