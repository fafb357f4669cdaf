// Copyright 2026 The pasjoin Authors.
#include "baselines/pbsm.h"

#include <vector>

#include "common/stopwatch.h"
#include "core/lpt_scheduler.h"
#include "core/planning.h"
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
  if (options.use_lpt &&
      !(options.sample_rate > 0.0 && options.sample_rate <= 1.0)) {
    return Status::InvalidArgument("sample rate must be in (0, 1]");
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

  double planning_seconds = 0.0;
  core::CellAssignment assignment = core::CellAssignment::Hash(options.workers);
  if (options.use_lpt) {
    core::Planner planner{core::PlanningOptions{}};
    grid::GridStats stats(&grid);
    {
      obs::ScopedSpan span(trace, "driver-sample", "driver");
      stats.AddSample(Side::kR, r, options.sample_rate, options.sample_seed);
      stats.AddSample(Side::kS, s, options.sample_rate,
                      options.sample_seed + 1);
    }
    // The planning stopwatch covers exactly the planning-* spans it is
    // validated against.
    Stopwatch planning_sw;
    obs::ScopedSpan span(trace, "driver-placement", "driver");
    span.SetStringArg("scheduler", "lpt");
    assignment = core::PlanLptAssignment(
        core::PlanCellCosts(grid, stats, &planner, trace), options.workers,
        trace);
    planning_seconds = planning_sw.ElapsedSeconds();
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
  run.metrics.measured_planning_seconds = planning_seconds;
  exec::FinishDriverRun(PbsmVariantName(variant), driver_seconds, trace, &run);
  return run;
}

}  // namespace pasjoin::baselines
