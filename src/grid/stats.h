// Copyright 2026 The pasjoin Authors.
//
// Per-cell sample statistics (the first "dictionary" of Section 5.1).
//
// During the sampling phase each sampled point contributes to:
//   * the total count of its cell (per data set side), and
//   * one "band" count per neighboring cell within MINDIST <= eps of the
//     point, i.e. the count of replication candidates toward that neighbor.
// These statistics drive the agreement-type policies (LPiB needs band
// counts, DIFF needs totals), the edge weights of the graph of agreements
// (Example 4.4), and the LPT cost estimates (Section 6.2).
//
// Only cells that received a sampled point hold counts. A sample of n points
// touches at most n cells, so the statistics are sized by the sample, not by
// the grid: at the paper's unscaled eps a 2.5M-cell grid is touched in well
// under 1% of its cells.
#ifndef PASJOIN_GRID_STATS_H_
#define PASJOIN_GRID_STATS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/flat_index.h"
#include "common/tuple.h"
#include "grid/grid.h"

namespace pasjoin::grid {

/// Index of a neighbor direction (dx, dy), dx/dy in {-1,0,+1}, not both 0.
/// Returns a value in [0, 8).
int DirIndex(int dx, int dy);

/// The (dx, dy) offsets for direction index `dir` in [0, 8).
void DirOffset(int dir, int* dx, int* dy);

/// A Bernoulli draw over one input (matching Spark's sample()): each tuple
/// is taken independently with probability `rate`, decided in input order
/// by one NextBernoulli(rate) of Rng(seed) per tuple. A rate of 1 takes
/// every tuple and draws nothing.
struct SampleDraw {
  double rate = 1.0;
  uint64_t seed = 0;
};

/// What one pass over an input read before planning.
struct InputScan {
  /// The input's MBR when the scan folded it, the empty Rect otherwise.
  Rect bounds;
  /// The drawn points, in input order.
  std::vector<Point> sample;
};

/// Reads `dataset` once, tuple by tuple: folds its bounds when
/// `fold_bounds` (from tuple 0 with Rect::Union, exactly as Dataset::Mbr,
/// so NaN and infinite coordinates give the same Rect), and draws `draw`
/// when set. Folding needs a non-empty `dataset`; the rate must be in
/// (0, 1].
InputScan ScanInput(const Dataset& dataset, bool fold_bounds,
                    const std::optional<SampleDraw>& draw);

/// The sample counts of one cell.
struct CellCounts {
  CellId cell = kInvalidId;
  /// Sampled points per side.
  uint32_t total[2] = {0, 0};
  /// Per side and direction (see DirIndex): sampled points that are
  /// replication candidates toward that neighbor.
  uint32_t band[2][8] = {};
};

/// Sample-derived per-cell counts for both join inputs.
class GridStats {
 public:
  /// Creates empty statistics for `grid`. The grid must outlive the stats.
  explicit GridStats(const Grid* grid) : grid_(grid) {}

  /// Records one sampled point of relation `side`.
  void Add(Side side, const Point& p);

  /// Records the points a draw took from a `population`-tuple input of
  /// relation `side`, and scales the side by population / drawn points
  /// (the scale stays 1.0 when nothing was drawn). Cells first met here
  /// are appended; SortCells lays them out.
  void AddDrawn(Side side, std::span<const Point> drawn, size_t population);

  /// Lays the sampled cells' slots out in cell order: consumers walking
  /// Sampled() then walk the grid row by row, and every table they probe
  /// with it, instead of jumping.
  void SortCells();

  /// Draws SampleDraw{rate, seed} from `dataset` (see ScanInput), records
  /// the drawn points with AddDrawn and sorts the cells. Returns the number
  /// of sampled tuples.
  size_t AddSample(Side side, const Dataset& dataset, double rate,
                   uint64_t seed);

  /// The counts of `cell`, or nullptr when no sampled point fell in it.
  const CellCounts* Find(CellId cell) const {
    const int32_t slot = slot_of_.Find(cell);
    return slot == FlatIndex::kAbsent ? nullptr
                                      : &counts_[static_cast<size_t>(slot)];
  }

  /// Total sampled points of `side` in `cell`.
  uint32_t CellCount(Side side, CellId cell) const {
    const CellCounts* c = Find(cell);
    return c == nullptr ? 0 : c->total[static_cast<int>(side)];
  }

  /// Sampled points of `side` in `cell` that are replication candidates
  /// toward the neighbor in direction `dir` (see DirIndex).
  uint32_t BandCount(Side side, CellId cell, int dir) const {
    const CellCounts* c = Find(cell);
    return c == nullptr ? 0 : c->band[static_cast<int>(side)][dir];
  }

  /// The counts of every cell holding at least one sampled point: in cell
  /// order after AddSample or SortCells, followed by cells first met by
  /// later Add calls.
  const std::vector<CellCounts>& Sampled() const { return counts_; }

  /// Estimated number of candidate pairs (|R_i| * |S_i|) for `cell`, scaled
  /// from the sample by both sampling rates. This is the per-cell cost LPT
  /// balances (Section 6.2). Replication contributions are intentionally
  /// ignored: they are small once adaptive replication minimizes them.
  double EstimatedCellCost(CellId cell) const {
    const CellCounts* c = Find(cell);
    return c == nullptr ? 0.0 : EstimatedCost(*c);
  }
  /// EstimatedCellCost of a cell with counts `c`.
  double EstimatedCost(const CellCounts& c) const {
    return (c.total[0] * scale_[0]) * (c.total[1] * scale_[1]);
  }

  /// Number of sampled points per side.
  uint64_t SampleSize(Side side) const {
    return sample_size_[static_cast<int>(side)];
  }

  /// Sample-to-population scale factor used by EstimatedCellCost.
  void SetScale(Side side, double scale) {
    scale_[static_cast<int>(side)] = scale;
  }

  /// The sample-to-population scale factor of `side` (1.0 by default or for
  /// full sampling).
  double Scale(Side side) const { return scale_[static_cast<int>(side)]; }

  const Grid& grid() const { return *grid_; }

 private:
  const Grid* grid_;
  /// Sampled cells' counts, by slot; slot_of_ maps cell -> slot.
  std::vector<CellCounts> counts_;
  FlatIndex slot_of_;
  uint64_t sample_size_[2] = {0, 0};
  double scale_[2] = {1.0, 1.0};
};

}  // namespace pasjoin::grid

#endif  // PASJOIN_GRID_STATS_H_
