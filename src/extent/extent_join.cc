// Copyright 2026 The pasjoin Authors.
#include "extent/extent_join.h"

#include <algorithm>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "exec/engine.h"
#include "exec/thread_pool.h"
#include "grid/grid.h"

namespace pasjoin::extent {

using grid::CellId;
using grid::Grid;

namespace {

/// Serialized size of an object routed through the shuffle: header plus its
/// vertex array.
uint64_t ObjectBytes(const SpatialObject& o) {
  return kTupleHeaderBytes + o.vertices.size() * 16;
}

/// The unique reference point of a candidate pair: the lower-left corner of
/// the intersection of (r's MBR expanded by eps) with s's MBR. Well-defined
/// whenever MINDIST(r.mbr, s.mbr) <= eps.
Point ReferencePoint(const Rect& r_mbr, const Rect& s_mbr, double eps) {
  return Point{std::max(r_mbr.min_x - eps, s_mbr.min_x),
               std::max(r_mbr.min_y - eps, s_mbr.min_y)};
}

struct CellContent {
  /// Indexes into the input datasets plus their precomputed MBRs.
  std::vector<std::pair<int32_t, Rect>> r;
  std::vector<std::pair<int32_t, Rect>> s;
};

}  // namespace

Rect ExtentDataset::Mbr() const {
  PASJOIN_CHECK(!objects.empty());
  Rect mbr = objects[0].Mbr();
  for (const SpatialObject& o : objects) mbr = mbr.Union(o.Mbr());
  return mbr;
}

Result<ExtentJoinRun> GridExtentDistanceJoin(const ExtentDataset& r,
                                             const ExtentDataset& s,
                                             const ExtentJoinOptions& options) {
  PASJOIN_RETURN_NOT_OK(exec::ValidateEps(options.eps));
  if (r.objects.empty() || s.objects.empty()) {
    return Status::InvalidArgument("both join inputs must be non-empty");
  }
  PASJOIN_RETURN_NOT_OK(exec::ValidateParallelism(
      options.workers, /*num_splits=*/0, options.physical_threads));
  const double eps = options.eps;

  ExtentJoinRun run;
  exec::JobMetrics& m = run.metrics;
  m.algorithm = "extent-grid";
  m.workers = options.workers;
  Stopwatch wall;
  Stopwatch construction;

  const Rect mbr =
      options.mbr.Area() > 0.0 ? options.mbr : r.Mbr().Union(s.Mbr());
  Result<Grid> grid_result =
      Grid::MakeForBaseline(mbr, eps, options.resolution_factor);
  if (!grid_result.ok()) return grid_result.status();
  const Grid g = grid_result.MoveValue();

  // Multi-assignment: R objects to every cell their eps-expanded MBR
  // intersects, S objects to every cell their MBR intersects.
  std::vector<CellContent> cells(static_cast<size_t>(g.num_cells()));
  const auto route = [&](const ExtentDataset& d, Side side) {
    const bool is_r = side == Side::kR;
    for (int32_t i = 0; i < static_cast<int32_t>(d.objects.size()); ++i) {
      const Rect obj_mbr = d.objects[static_cast<size_t>(i)].Mbr();
      const grid::CellRange range =
          g.CellsCovering(is_r ? obj_mbr.Expanded(eps) : obj_mbr);
      for (int cy = range.y_lo; cy <= range.y_hi; ++cy) {
        for (int cx = range.x_lo; cx <= range.x_hi; ++cx) {
          CellContent& cell = cells[static_cast<size_t>(g.CellIdOf(cx, cy))];
          (is_r ? cell.r : cell.s).emplace_back(i, obj_mbr);
        }
      }
      const auto copies = static_cast<uint64_t>(range.x_hi - range.x_lo + 1) *
                          static_cast<uint64_t>(range.y_hi - range.y_lo + 1);
      (is_r ? m.replicated_r : m.replicated_s) += copies - 1;
      m.shuffled_tuples += copies;
      m.shuffle_bytes +=
          copies * ObjectBytes(d.objects[static_cast<size_t>(i)]);
    }
  };
  route(r, Side::kR);
  route(s, Side::kS);
  m.construction_seconds = construction.ElapsedSeconds();

  // Per-cell joins, one task per logical worker (cells hashed to workers).
  const int workers = options.workers;
  const int physical = options.physical_threads > 0
                           ? options.physical_threads
                           : exec::ThreadPool::DefaultThreads();
  exec::ThreadPool pool(physical);
  std::vector<double> busy(static_cast<size_t>(workers), 0.0);
  std::vector<uint64_t> candidates(static_cast<size_t>(workers), 0);
  std::vector<uint64_t> results(static_cast<size_t>(workers), 0);
  std::vector<uint64_t> joined(static_cast<size_t>(workers), 0);
  std::vector<std::vector<ResultPair>> pairs(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.Submit([&, w] {
      Stopwatch watch;
      for (CellId c = w; c < g.num_cells(); c += workers) {
        CellContent& cell = cells[static_cast<size_t>(c)];
        if (cell.r.empty() || cell.s.empty()) continue;
        ++joined[static_cast<size_t>(w)];
        // Sweep over x-sorted MBRs: only pairs with overlapping eps-expanded
        // x-ranges reach the exact test.
        auto by_min_x = [](const std::pair<int32_t, Rect>& a,
                           const std::pair<int32_t, Rect>& b) {
          return a.second.min_x < b.second.min_x;
        };
        std::sort(cell.r.begin(), cell.r.end(), by_min_x);
        std::sort(cell.s.begin(), cell.s.end(), by_min_x);
        size_t s_lo = 0;
        for (const auto& [ri, r_mbr] : cell.r) {
          while (s_lo < cell.s.size() &&
                 cell.s[s_lo].second.max_x < r_mbr.min_x - eps) {
            ++s_lo;
          }
          for (size_t j = s_lo; j < cell.s.size(); ++j) {
            const auto& [si, s_mbr] = cell.s[j];
            if (s_mbr.min_x > r_mbr.max_x + eps) break;
            if (MinDist(r_mbr, s_mbr) > eps) continue;
            // Duplicate avoidance: only the cell owning the pair's
            // reference point reports it.
            if (g.Locate(ReferencePoint(r_mbr, s_mbr, eps)) != c) continue;
            ++candidates[static_cast<size_t>(w)];
            if (WithinDistance(r.objects[static_cast<size_t>(ri)],
                               s.objects[static_cast<size_t>(si)], eps)) {
              ++results[static_cast<size_t>(w)];
              if (options.collect_results) {
                pairs[static_cast<size_t>(w)].push_back(
                    ResultPair{r.objects[static_cast<size_t>(ri)].id,
                               s.objects[static_cast<size_t>(si)].id});
              }
            }
          }
        }
      }
      busy[static_cast<size_t>(w)] = watch.ElapsedSeconds();
    });
  }
  pool.Wait();

  for (int w = 0; w < workers; ++w) {
    m.candidates += candidates[static_cast<size_t>(w)];
    m.results += results[static_cast<size_t>(w)];
    m.partitions_joined += joined[static_cast<size_t>(w)];
    if (options.collect_results) {
      run.pairs.insert(run.pairs.end(), pairs[static_cast<size_t>(w)].begin(),
                       pairs[static_cast<size_t>(w)].end());
    }
  }
  m.worker_busy_join = busy;
  m.join_seconds = *std::max_element(busy.begin(), busy.end());
  m.wall_seconds = wall.ElapsedSeconds();
  return run;
}

}  // namespace pasjoin::extent
