// Copyright 2026 The pasjoin Authors.
#include "core/epsilon_advisor.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/driver.h"

namespace pasjoin::core {

double EstimateResultCount(const grid::Grid& grid, const grid::GridStats& stats,
                           double eps) {
  const int nx = grid.nx();
  const int ny = grid.ny();
  const double cell_w = grid.cell_width();
  const double cell_h = grid.cell_height();
  constexpr double kPi = 3.14159265358979323846;

  // Each R point sees an eps-disc of S points. Under local uniformity its
  // expected match count is (local S density) * pi * eps^2. The local density
  // is measured over the square window of cells reachable within eps; because
  // eps rarely lands on an integer number of cells, we blend the densities of
  // the enclosing integer windows so the estimate is continuous in eps (the
  // advisor bisects it). Only sampled cells are visited: the S cells sorted
  // row-major with running sums, so a window sums each of its rows that holds
  // S cells with two binary searches.
  const double s_scale = stats.Scale(Side::kS);
  const double r_scale = stats.Scale(Side::kR);
  // (row-major key y * nx + x, scaled S count), ascending.
  std::vector<std::pair<int64_t, double>> s_cells;
  for (const grid::CellCounts& c : stats.Sampled()) {
    if (c.total[1] > 0) s_cells.emplace_back(c.cell, c.total[1] * s_scale);
  }
  std::sort(s_cells.begin(), s_cells.end());
  std::vector<double> prefix(1, 0.0);
  for (const auto& s_cell : s_cells) {
    prefix.push_back(prefix.back() + s_cell.second);
  }
  const auto first_at_or_after = [&s_cells](int64_t key) {
    return static_cast<size_t>(
        std::lower_bound(s_cells.begin(), s_cells.end(),
                         std::pair<int64_t, double>{key, -1.0}) -
        s_cells.begin());
  };
  const auto window_density = [&](int cx, int cy, int wx, int wy) {
    const int64_t x0 = std::max(0, cx - wx);
    const int64_t x1 = std::min(nx - 1, cx + wx);
    const int64_t y0 = std::max(0, cy - wy);
    const int64_t y1 = std::min(ny - 1, cy + wy);
    double sum = 0.0;
    for (int64_t row = y0; row <= y1;) {
      const size_t begin = first_at_or_after(row * nx + x0);
      if (begin == s_cells.size()) break;
      if (s_cells[begin].first / nx != row) {  // skip rows without S cells
        row = s_cells[begin].first / nx;
        continue;
      }
      sum += prefix[first_at_or_after(row * nx + x1 + 1)] - prefix[begin];
      ++row;
    }
    const double area = static_cast<double>(x1 - x0 + 1) * cell_w *
                        (static_cast<double>(y1 - y0 + 1) * cell_h);
    return sum / area;
  };

  const double fx = eps / cell_w;
  const double fy = eps / cell_h;
  const int wx = static_cast<int>(fx);
  const int wy = static_cast<int>(fy);
  const double blend = 0.5 * ((fx - wx) + (fy - wy));

  const double search_area = kPi * eps * eps;
  double expected = 0.0;
  for (const grid::CellCounts& c : stats.Sampled()) {
    const double r_count = c.total[0] * r_scale;
    if (r_count <= 0.0) continue;
    const int cx = grid.CellX(c.cell);
    const int cy = grid.CellY(c.cell);
    const double d0 = window_density(cx, cy, wx, wy);
    const double d1 = window_density(cx, cy, wx + 1, wy + 1);
    expected += r_count * ((1.0 - blend) * d0 + blend * d1) * search_area;
  }
  // The estimate can never exceed the full cross product.
  const double total_r =
      static_cast<double>(stats.SampleSize(Side::kR)) * r_scale;
  const double total_s =
      static_cast<double>(stats.SampleSize(Side::kS)) * s_scale;
  return std::min(expected, total_r * total_s);
}

Result<double> AdviseEpsilon(const Dataset& r, const Dataset& s,
                             double target_results,
                             const EpsilonAdvisorOptions& options) {
  if (!(options.eps_min > 0.0) || !(options.eps_max > options.eps_min)) {
    return Status::InvalidArgument("need 0 < eps_min < eps_max");
  }
  if (!(target_results > 0.0)) {
    return Status::InvalidArgument("target result count must be positive");
  }
  // The statistics come from the join drivers' own steps. Build the
  // histogram fine enough that even eps_min is resolved: cells of about
  // 2 * eps_min, the finest resolution the joins themselves use.
  JoinOptions job;
  job.eps = options.eps_min;
  Result<Driver> admitted = Driver::Admit(
      r, s, job, Sampling::BothSides(options.sample_rate, options.sample_seed));
  if (!admitted.ok()) return admitted.status();
  Result<grid::Grid> grid_result =
      admitted.value().MakeGrid(2.0, /*baseline=*/false);
  if (!grid_result.ok()) return grid_result.status();
  const grid::Grid grid = grid_result.MoveValue();
  const grid::GridStats stats = admitted.value().Sample(grid);

  // The estimate is monotone increasing in eps: bisect.
  double lo = options.eps_min;
  double hi = options.eps_max;
  if (EstimateResultCount(grid, stats, lo) >= target_results) return lo;
  if (EstimateResultCount(grid, stats, hi) <= target_results) return hi;
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (EstimateResultCount(grid, stats, mid) < target_results) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace pasjoin::core
