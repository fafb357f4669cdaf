// Copyright 2026 The pasjoin Authors.
//
// The regular grid substrate (Section 4.1). Cells are equi-sized rectangles
// whose side lengths strictly exceed 2*eps, which bounds replication to at
// most 3 extra cells per point and gives every replication decision a unique
// owning quartet.
//
// Terminology used throughout:
//   * cell (cx, cy)  - a grid cell; CellId is its row-major linear index;
//   * corner (qx,qy) - a grid-line intersection point; the *interior* corners
//     (1 <= qx <= nx-1, 1 <= qy <= ny-1) touch exactly 4 cells and define the
//     paper's "quartets" (2x2 blocks with a common touching point, the
//     quartet's reference point);
//   * replication areas (Figure 9): the eps-wide band along each internal
//     border splits into "corner squares" (within eps of two perpendicular
//     internal borders -> merged duplicate-prone area of one quartet) and the
//     "plain replication area" (within eps of exactly one internal border).
#ifndef PASJOIN_GRID_GRID_H_
#define PASJOIN_GRID_GRID_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "common/geometry.h"
#include "common/small_vector.h"
#include "common/status.h"

namespace pasjoin::grid {

/// Row-major linear index of a grid cell.
using CellId = int32_t;

/// Linear index of an interior grid corner (a quartet's reference point).
using QuartetId = int32_t;

/// Sentinel for "no cell" / "no quartet".
inline constexpr int32_t kInvalidId = -1;

/// Positions of the four cells of a quartet, viewed from the reference point.
enum QuartetCell : int {
  kSW = 0,  ///< cell below-left of the reference point
  kSE = 1,  ///< cell below-right
  kNW = 2,  ///< cell above-left
  kNE = 3,  ///< cell above-right
};

/// Returns the cell diagonally opposite `c` within a quartet.
inline int DiagonalOf(int c) { return 3 - c; }

/// Returns the two cells side-adjacent to `c` within a quartet.
/// (kSW -> {kSE, kNW}, etc.)
void SideAdjacentOf(int c, int* a, int* b);

/// How a point relates to the replication areas of its cell (Figure 9).
enum class AreaKind : uint8_t {
  kNone,    ///< farther than eps from every internal border: never replicated
  kPlain,   ///< within eps of exactly one internal border
  kCorner,  ///< within eps of two perpendicular internal borders: inside the
            ///< merged duplicate-prone square of one quartet
};

/// Classification result for one point (see Grid::ClassifyArea).
struct AreaInfo {
  AreaKind kind = AreaKind::kNone;
  /// Direction of the near internal border(s): dx in {-1,0,+1}, dy likewise.
  /// kPlain has exactly one nonzero component; kCorner has both nonzero.
  int dx = 0;
  int dy = 0;
  /// kCorner: the owning quartet (always valid - two perpendicular internal
  /// borders meet at an interior corner).
  QuartetId quartet = kInvalidId;
};

/// The coordinates (cx, cy) of one grid cell.
struct CellCoord {
  int x = 0;
  int y = 0;
};

/// The directions (dx, dy) of AreaInfo: the internal borders within eps of
/// a point, one per axis at most.
struct BorderSigns {
  int dx = 0;
  int dy = 0;
};

/// An inclusive rectangle of cell coordinates [x_lo, x_hi] x [y_lo, y_hi].
struct CellRange {
  int x_lo = 0;
  int y_lo = 0;
  int x_hi = -1;
  int y_hi = -1;
};

/// An equi-sized rectangular grid over an MBR, tuned for eps-distance joins.
class Grid {
 public:
  /// Builds a grid over `mbr` with cell sides of at least
  /// `resolution_factor * eps` (strictly greater than 2*eps in both axes, as
  /// Section 4.2 requires). `resolution_factor` >= 2 is the paper's
  /// grid-resolution knob (Figure 15 sweeps 2..5).
  ///
  /// Fails with InvalidArgument for an eps that is not positive and finite,
  /// empty MBRs, factor < 2, or more cells than CellId can number.
  [[nodiscard]] static Result<Grid> Make(const Rect& mbr, double eps,
                                         double resolution_factor = 2.0);

  /// Like Make but without the l > 2*eps requirement (any factor > 0).
  /// Only for baseline algorithms (e.g. PBSM's eps-grid variant, which uses
  /// eps x eps cells): the agreement/quartet machinery (ClassifyArea,
  /// quartets) must not be used on such grids.
  [[nodiscard]] static Result<Grid> MakeForBaseline(
      const Rect& mbr, double eps, double resolution_factor);

  /// Number of cells along x / y and in total.
  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int num_cells() const { return nx_ * ny_; }

  /// Number of interior corners, i.e. quartets: (nx-1) * (ny-1).
  int num_quartets() const { return (nx_ - 1) * (ny_ - 1); }

  double eps() const { return eps_; }
  double cell_width() const { return cell_w_; }
  double cell_height() const { return cell_h_; }
  const Rect& mbr() const { return mbr_; }

  /// Cell coordinate <-> CellId conversions.
  CellId CellIdOf(int cx, int cy) const { return cx + cy * nx_; }
  int CellX(CellId id) const { return id % nx_; }
  int CellY(CellId id) const { return id / nx_; }
  bool HasCell(int cx, int cy) const {
    return cx >= 0 && cx < nx_ && cy >= 0 && cy < ny_;
  }

  /// The cell enclosing `p`. Points on shared borders go to the upper/right
  /// cell; points outside the MBR are clamped to the nearest cell.
  CellId Locate(const Point& p) const {
    const CellCoord c = LocateCell(p);
    return CellIdOf(c.x, c.y);
  }
  /// Locate, as cell coordinates.
  CellCoord LocateCell(const Point& p) const {
    return CellCoord{ClampedCell((p.x - mbr_.min_x) / cell_w_, nx_),
                     ClampedCell((p.y - mbr_.min_y) / cell_h_, ny_)};
  }

  /// The cells covering `region`, clamped to the grid. Indices are clamped
  /// before the integer cast, so any region is safe, however far outside
  /// the MBR or infinite; a NaN bound maps to index 0.
  CellRange CellsCovering(const Rect& region) const;

  /// Geometric extent of a cell.
  Rect CellRect(CellId id) const;
  /// Geometric extent of cell (cx, cy).
  Rect CellRectAt(int cx, int cy) const {
    return Rect{mbr_.min_x + cx * cell_w_, mbr_.min_y + cy * cell_h_,
                mbr_.min_x + (cx + 1) * cell_w_,
                mbr_.min_y + (cy + 1) * cell_h_};
  }

  /// QuartetId for interior corner (qx, qy), 1 <= qx <= nx-1, 1 <= qy <= ny-1;
  /// kInvalidId for non-interior corners.
  QuartetId QuartetIdOf(int qx, int qy) const {
    if (qx < 1 || qx > nx_ - 1 || qy < 1 || qy > ny_ - 1) return kInvalidId;
    return (qx - 1) + (qy - 1) * (nx_ - 1);
  }
  /// Corner coordinates of a quartet.
  int QuartetX(QuartetId q) const { return q % (nx_ - 1) + 1; }
  int QuartetY(QuartetId q) const { return q / (nx_ - 1) + 1; }

  /// The reference point (common touching point) of a quartet.
  Point QuartetRefPoint(QuartetId q) const {
    return CornerPoint(QuartetX(q), QuartetY(q));
  }
  /// The grid-line intersection at corner (qx, qy).
  Point CornerPoint(int qx, int qy) const {
    return Point{mbr_.min_x + qx * cell_w_, mbr_.min_y + qy * cell_h_};
  }

  /// The CellId of quartet `q`'s cell at position `which` (kSW..kNE).
  CellId QuartetCellId(QuartetId q, int which) const {
    const int qx = QuartetX(q);
    const int qy = QuartetY(q);
    const int cx = qx - 1 + (which & 1);
    const int cy = qy - 1 + ((which >> 1) & 1);
    return CellIdOf(cx, cy);
  }

  /// Position (kSW..kNE) of `cell` within quartet `q`; -1 if not a member.
  int PositionInQuartet(QuartetId q, CellId cell) const;

  /// Classifies where `p` (lying in `cell`) falls among the replication areas
  /// of Figure 9. Only *internal* borders count: proximity to the grid's
  /// outer boundary never triggers replication.
  AreaInfo ClassifyArea(const Point& p, CellId cell) const {
    return ClassifyArea(p, CellCoord{CellX(cell), CellY(cell)});
  }
  /// ClassifyArea for `p` lying in cell `c`.
  AreaInfo ClassifyArea(const Point& p, CellCoord c) const;

  /// ClassifyArea's border directions for `p` lying in cell `c`, computed
  /// without branches: the map's block router evaluates them for every
  /// point, and ClassifyArea takes them from here, so both paths compare
  /// the same expressions. Cell sides strictly exceed 2 * eps, so at most
  /// one border per axis is near; the left and bottom borders would win a
  /// tie.
  BorderSigns NearBorders(const Point& p, CellCoord c) const {
    const Rect rect = CellRectAt(c.x, c.y);
    const bool left = (c.x > 0) & ((p.x - rect.min_x) <= eps_);
    const bool right = (c.x < nx_ - 1) & ((rect.max_x - p.x) <= eps_);
    const bool bottom = (c.y > 0) & ((p.y - rect.min_y) <= eps_);
    const bool top = (c.y < ny_ - 1) & ((rect.max_y - p.y) <= eps_);
    return BorderSigns{
        static_cast<int>(right & !left) - static_cast<int>(left),
        static_cast<int>(top & !bottom) - static_cast<int>(bottom)};
  }

  /// Human-readable summary ("grid 241x104, cell 0.2405x0.2403, eps 0.12").
  std::string ToString() const;

 private:
  Grid(const Rect& mbr, double eps, int nx, int ny);

  /// floor(v) clamped to [0, n - 1] in double before the cast, so that no
  /// value, infinite ones included, overflows it; NaN maps to 0. The clamp
  /// comes first: on (0, n - 1) truncation is floor, and every other v
  /// lands on the same end either way, so no floor is needed. That keeps
  /// LocateCell free of floor's branches on the map's hot path.
  static int ClampedCell(double v, int n) {
    const double low = v > 0.0 ? v : 0.0;  // NaN fails the test
    const double top = static_cast<double>(n - 1);
    return static_cast<int>(low < top ? low : top);
  }

  Rect mbr_;
  double eps_ = 0.0;
  int nx_ = 0;
  int ny_ = 0;
  double cell_w_ = 0.0;
  double cell_h_ = 0.0;
};

/// Every cell within MINDIST <= grid.eps() of `p`, the native cell
/// (Grid::Locate) first: the single-set replication of PBSM and of the
/// self-join's replicated stream. Valid for any cell size, including
/// baseline grids finer than 2*eps (an eps x eps grid reaches cells two
/// steps away).
SmallVector<CellId, 4> CellsWithinEps(const Grid& grid, const Point& p);

}  // namespace pasjoin::grid

#endif  // PASJOIN_GRID_GRID_H_
