// Copyright 2026 The pasjoin Authors.
#include "core/self_join.h"

#include <vector>

#include "common/stopwatch.h"
#include "core/lpt_scheduler.h"
#include "core/planning.h"
#include "grid/grid.h"
#include "grid/stats.h"

namespace pasjoin::core {

Result<exec::JoinRun> SelfDistanceJoin(const Dataset& data,
                                       const SelfJoinOptions& options) {
  if (!(options.eps > 0.0)) {
    return Status::InvalidArgument("eps must be positive");
  }
  if (data.tuples.empty()) {
    return Status::InvalidArgument("input must be non-empty");
  }
  if (options.use_lpt &&
      !(options.lpt_sample_rate > 0.0 && options.lpt_sample_rate <= 1.0)) {
    return Status::InvalidArgument("LPT sample rate must be in (0, 1]");
  }
  PASJOIN_RETURN_NOT_OK(exec::AdmitJob(options));

  Stopwatch driver;
  obs::TraceRecorder* const trace = options.trace;
  Rect mbr = options.mbr;
  if (!(mbr.Area() > 0.0)) {
    mbr = data.Mbr();
  }
  Result<grid::Grid> grid_result = [&] {
    obs::ScopedSpan span(trace, "driver-grid", "driver");
    return grid::Grid::MakeForBaseline(mbr, options.eps,
                                       options.resolution_factor);
  }();
  if (!grid_result.ok()) return grid_result.status();
  const grid::Grid grid = grid_result.MoveValue();

  // Optional LPT placement: sample the input once (same seed for both
  // logical sides, so the estimated per-cell cost is the exact square of
  // the sampled density) and place cells on workers by descending cost.
  // The result set is identical to hash placement - only the mapping moves.
  double planning_seconds = 0.0;
  exec::OwnerFn owner;
  if (options.use_lpt) {
    Planner planner(options.planning);
    grid::GridStats stats(&grid);
    {
      obs::ScopedSpan span(trace, "driver-sample", "driver");
      stats.AddSample(Side::kR, data, options.lpt_sample_rate,
                      options.lpt_sample_seed);
      stats.AddSample(Side::kS, data, options.lpt_sample_rate,
                      options.lpt_sample_seed);
    }
    // The planning stopwatch starts after sampling: it must cover exactly
    // the planning-* spans it is validated against.
    Stopwatch planning_sw;
    obs::ScopedSpan span(trace, "driver-placement", "driver");
    span.SetStringArg("scheduler", "lpt");
    const std::vector<double> costs =
        PlanCellCosts(grid, stats, &planner, trace);
    const CellAssignment assignment =
        PlanLptAssignment(costs, options.workers, trace);
    planning_seconds = planning_sw.ElapsedSeconds();
    owner = assignment.AsOwnerFn();
  } else {
    owner = CellAssignment::Hash(options.workers).AsOwnerFn();
  }
  const double driver_seconds = driver.ElapsedSeconds();

  // One logical stream is replicated (fed as side R), the other is
  // single-assigned (side S); the engine's self-join filter keeps each
  // unordered pair once.
  exec::AssignFn assign = [&grid](const Tuple& t, Side side) {
    if (side == Side::kR) return grid::CellsWithinEps(grid, t.pt);
    exec::PartitionList out;
    out.push_back(grid.Locate(t.pt));
    return out;
  };

  exec::EngineOptions engine_options;
  static_cast<exec::ExecOptions&>(engine_options) = options;
  engine_options.eps = options.eps;
  engine_options.self_join = true;
  engine_options.bounds = mbr;

  Result<exec::JoinRun> run_result =
      exec::TryRunPartitionedJoin(data, data, assign, owner, engine_options);
  if (!run_result.ok()) return run_result.status();
  exec::JoinRun run = run_result.MoveValue();
  run.metrics.measured_planning_seconds = planning_seconds;
  exec::FinishDriverRun("self-join", driver_seconds, trace, &run);
  return run;
}

}  // namespace pasjoin::core
