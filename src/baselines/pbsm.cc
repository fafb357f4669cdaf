// Copyright 2026 The pasjoin Authors.
#include "baselines/pbsm.h"

#include <vector>

#include "common/stopwatch.h"
#include "core/lpt_scheduler.h"
#include "grid/grid.h"
#include "grid/stats.h"

namespace pasjoin::baselines {

const char* PbsmVariantName(PbsmVariant v) {
  switch (v) {
    case PbsmVariant::kUniR:
      return "UNI(R)";
    case PbsmVariant::kUniS:
      return "UNI(S)";
    case PbsmVariant::kEpsGrid:
      return "eps-grid";
  }
  return "?";
}

Result<exec::JoinRun> PbsmDistanceJoin(const Dataset& r, const Dataset& s,
                                       PbsmVariant variant,
                                       const PbsmOptions& options) {
  if (!(options.eps > 0.0)) {
    return Status::InvalidArgument("eps must be positive");
  }
  if (r.tuples.empty() || s.tuples.empty()) {
    return Status::InvalidArgument("both join inputs must be non-empty");
  }
  PASJOIN_RETURN_NOT_OK(exec::AdmitJob(options));

  Stopwatch driver;
  obs::TraceRecorder* const trace = options.trace;
  Rect mbr = options.mbr;
  if (!(mbr.Area() > 0.0)) {
    mbr = r.Mbr().Union(s.Mbr());
  }
  const double factor =
      variant == PbsmVariant::kEpsGrid ? 1.0 : options.resolution_factor;
  Result<grid::Grid> grid_result = [&] {
    obs::ScopedSpan span(trace, "driver-grid", "driver");
    return grid::Grid::MakeForBaseline(mbr, options.eps, factor);
  }();
  if (!grid_result.ok()) return grid_result.status();
  const grid::Grid grid = grid_result.MoveValue();

  // Which relation is replicated.
  Side replicated = Side::kR;
  switch (variant) {
    case PbsmVariant::kUniR:
      replicated = Side::kR;
      break;
    case PbsmVariant::kUniS:
      replicated = Side::kS;
      break;
    case PbsmVariant::kEpsGrid:
      // The eps-grid variant replicates the data set with fewer objects.
      replicated = r.tuples.size() <= s.tuples.size() ? Side::kR : Side::kS;
      break;
  }

  core::CellAssignment assignment = core::CellAssignment::Hash(options.workers);
  if (options.use_lpt) {
    obs::ScopedSpan span(trace, "driver-placement", "driver");
    span.SetStringArg("scheduler", "lpt");
    grid::GridStats stats(&grid);
    stats.AddSample(Side::kR, r, options.sample_rate, options.sample_seed);
    stats.AddSample(Side::kS, s, options.sample_rate, options.sample_seed + 1);
    std::vector<double> costs(static_cast<size_t>(grid.num_cells()), 0.0);
    for (grid::CellId c = 0; c < grid.num_cells(); ++c) {
      costs[static_cast<size_t>(c)] = stats.EstimatedCellCost(c);
    }
    assignment = core::CellAssignment::Lpt(costs, options.workers);
  }
  const double driver_seconds = driver.ElapsedSeconds();

  exec::AssignFn assign = [&grid, replicated](const Tuple& t, Side side) {
    if (side == replicated) return grid::CellsWithinEps(grid, t.pt);
    exec::PartitionList out;
    out.push_back(grid.Locate(t.pt));
    return out;
  };

  exec::EngineOptions engine_options;
  static_cast<exec::ExecOptions&>(engine_options) = options;
  engine_options.eps = options.eps;
  engine_options.bounds = mbr;

  Result<exec::JoinRun> run_result = exec::TryRunPartitionedJoin(
      r, s, assign, assignment.AsOwnerFn(), engine_options);
  if (!run_result.ok()) return run_result.status();
  exec::JoinRun run = run_result.MoveValue();
  exec::FinishDriverRun(PbsmVariantName(variant), driver_seconds, trace, &run);
  return run;
}

}  // namespace pasjoin::baselines
