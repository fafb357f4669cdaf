// Copyright 2026 The pasjoin Authors.
#include "grid/stats.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/macros.h"
#include "common/rng.h"

namespace pasjoin::grid {

namespace {
// Order matches DirIndex/DirOffset below.
constexpr int kDx[8] = {-1, 0, 1, -1, 1, -1, 0, 1};
constexpr int kDy[8] = {-1, -1, -1, 0, 0, 1, 1, 1};
}  // namespace

int DirIndex(int dx, int dy) {
  PASJOIN_DCHECK(dx >= -1 && dx <= 1 && dy >= -1 && dy <= 1 && (dx != 0 || dy != 0));
  const int raw = (dy + 1) * 3 + (dx + 1);  // 0..8 with center == 4
  return raw < 4 ? raw : raw - 1;
}

void DirOffset(int dir, int* dx, int* dy) {
  PASJOIN_DCHECK(dir >= 0 && dir < 8);
  *dx = kDx[dir];
  *dy = kDy[dir];
}

void GridStats::Add(Side side, const Point& p) {
  const int s = static_cast<int>(side);
  const CellId cell = grid_->Locate(p);
  const int32_t slot =
      slot_of_.Insert(cell, static_cast<int32_t>(counts_.size()));
  if (static_cast<size_t>(slot) == counts_.size()) {
    counts_.emplace_back().cell = cell;
  }
  CellCounts& counts = counts_[static_cast<size_t>(slot)];
  ++counts.total[s];
  ++sample_size_[s];

  const Rect rect = grid_->CellRect(cell);
  const int cx = grid_->CellX(cell);
  const int cy = grid_->CellY(cell);
  const double eps = grid_->eps();

  // Distances to the four borders (clamped at 0 for points exactly outside
  // the cell due to clamping in Locate).
  const double dl = p.x - rect.min_x;
  const double dr = rect.max_x - p.x;
  const double db = p.y - rect.min_y;
  const double dt = rect.max_y - p.y;

  const bool near_l = cx > 0 && dl <= eps;
  const bool near_r = cx < grid_->nx() - 1 && dr <= eps;
  const bool near_b = cy > 0 && db <= eps;
  const bool near_t = cy < grid_->ny() - 1 && dt <= eps;

  uint32_t* band = counts.band[s];
  if (near_l) ++band[DirIndex(-1, 0)];
  if (near_r) ++band[DirIndex(1, 0)];
  if (near_b) ++band[DirIndex(0, -1)];
  if (near_t) ++band[DirIndex(0, 1)];

  const double eps2 = eps * eps;
  // Diagonal neighbors: MINDIST equals the distance to the shared corner.
  if (near_l && near_b && dl * dl + db * db <= eps2) ++band[DirIndex(-1, -1)];
  if (near_r && near_b && dr * dr + db * db <= eps2) ++band[DirIndex(1, -1)];
  if (near_l && near_t && dl * dl + dt * dt <= eps2) ++band[DirIndex(-1, 1)];
  if (near_r && near_t && dr * dr + dt * dt <= eps2) ++band[DirIndex(1, 1)];
}

void GridStats::AddDrawn(Side side, std::span<const Point> drawn,
                         size_t population) {
  for (const Point& p : drawn) Add(side, p);
  if (!drawn.empty()) {
    SetScale(side, static_cast<double>(population) /
                       static_cast<double>(drawn.size()));
  }
}

void GridStats::SortCells() {
  std::vector<std::pair<CellId, size_t>> order;
  order.reserve(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) {
    order.emplace_back(counts_[i].cell, i);
  }
  std::sort(order.begin(), order.end());
  std::vector<CellCounts> sorted;
  sorted.reserve(counts_.size());
  slot_of_ = FlatIndex();
  slot_of_.Reserve(counts_.size());
  for (const auto& [cell, slot] : order) {
    slot_of_.Insert(cell, static_cast<int32_t>(sorted.size()));
    sorted.push_back(counts_[slot]);
  }
  counts_.swap(sorted);
}

size_t GridStats::AddSample(Side side, const Dataset& dataset, double rate,
                            uint64_t seed) {
  const std::vector<Point> drawn =
      ScanInput(dataset, /*fold_bounds=*/false, SampleDraw{rate, seed})
          .sample;
  AddDrawn(side, drawn, dataset.tuples.size());
  SortCells();
  return drawn.size();
}

InputScan ScanInput(const Dataset& dataset, bool fold_bounds,
                    const std::optional<SampleDraw>& draw) {
  InputScan out;
  if (!draw) {
    if (fold_bounds) out.bounds = dataset.Mbr();
    return out;
  }
  const double rate = draw->rate;
  PASJOIN_CHECK(rate > 0.0 && rate <= 1.0);
  const std::vector<Tuple>& tuples = dataset.tuples;
  const bool take_all = rate >= 1.0;
  // The expected draw plus four standard deviations: one allocation for
  // all but a vanishing share of draws.
  const double expected = static_cast<double>(tuples.size()) * rate;
  out.sample.reserve(take_all ? tuples.size()
                              : static_cast<size_t>(
                                    expected + 4.0 * std::sqrt(expected)) +
                                    16);
  Rect bounds;
  if (fold_bounds) {
    PASJOIN_CHECK(!tuples.empty());
    const Point& first = tuples[0].pt;
    bounds = Rect{first.x, first.y, first.x, first.y};
  }
  // The hardware prefetchers stop at page boundaries, and a 4 KiB page
  // holds only 73 tuples, so the loop requests the tuple 64 ahead itself.
  // With the draw's work per tuple it otherwise reads about a third slower
  // than a pass that only folds the bounds. The flags never change inside
  // the loop, so their branches cost nothing.
  constexpr size_t kPrefetchAhead = 64;
  const size_t n = tuples.size();
  Rng rng(draw->seed);
  for (size_t i = 0; i < n; ++i) {
    __builtin_prefetch(&tuples[std::min(i + kPrefetchAhead, n - 1)]);
    const Point& p = tuples[i].pt;
    if (fold_bounds) bounds = bounds.Union(p);
    if (take_all || rng.NextBernoulli(rate)) out.sample.push_back(p);
  }
  out.bounds = bounds;
  return out;
}

}  // namespace pasjoin::grid
