// Copyright 2026 The pasjoin Authors.
#include "core/adaptive_join.h"

#include <utility>

#include "common/stopwatch.h"
#include "core/lpt_scheduler.h"
#include "core/planning.h"
#include "core/replication.h"
#include "grid/stats.h"

namespace pasjoin::core {

Result<exec::JoinRun> AdaptiveDistanceJoin(const Dataset& r, const Dataset& s,
                                           const AdaptiveJoinOptions& options,
                                           AdaptiveJoinArtifacts* artifacts) {
  if (!(options.eps > 0.0)) {
    return Status::InvalidArgument("eps must be positive");
  }
  if (r.tuples.empty() || s.tuples.empty()) {
    return Status::InvalidArgument("both join inputs must be non-empty");
  }
  if (!(options.sample_rate > 0.0 && options.sample_rate <= 1.0)) {
    return Status::InvalidArgument("sample rate must be in (0, 1]");
  }
  PASJOIN_RETURN_NOT_OK(exec::AdmitJob(options));

  Stopwatch driver;
  obs::TraceRecorder* const trace = options.trace;

  // --- grid over the data space --------------------------------------------
  Rect mbr = options.mbr;
  if (!(mbr.Area() > 0.0)) {
    mbr = r.Mbr().Union(s.Mbr());
  }
  Result<grid::Grid> grid_result = [&] {
    obs::ScopedSpan span(trace, "driver-grid", "driver");
    return grid::Grid::Make(mbr, options.eps, options.resolution_factor);
  }();
  if (!grid_result.ok()) return grid_result.status();
  const grid::Grid grid = grid_result.MoveValue();

  // --- sampling + statistics (Algorithm 5, lines 4-5) ----------------------
  grid::GridStats stats(&grid);
  {
    obs::ScopedSpan span(trace, "driver-sample", "driver");
    stats.AddSample(Side::kR, r, options.sample_rate, options.sample_seed);
    stats.AddSample(Side::kS, s, options.sample_rate, options.sample_seed + 1);
    span.AddArg("sampled_r", static_cast<int64_t>(stats.SampleSize(Side::kR)));
    span.AddArg("sampled_s", static_cast<int64_t>(stats.SampleSize(Side::kS)));
  }

  // --- graph of agreements (Sections 4-5) ----------------------------------
  // Statistically undecidable pairs default to replicating the globally
  // smaller relation. The planner runs this pipeline across host cores
  // (core/planning.h) with byte-identical results to a sequential build.
  Planner planner(options.planning);
  double planning_seconds = 0.0;
  const agreements::AgreementType tie_break = agreements::AgreementFor(
      r.tuples.size() <= s.tuples.size() ? Side::kR : Side::kS);
  size_t marked_edges = 0;
  size_t locked_edges = 0;
  agreements::AgreementGraph graph = [&] {
    obs::ScopedSpan span(trace, "driver-agreement-graph", "driver");
    Stopwatch planning_sw;
    agreements::AgreementGraph g = PlanAgreementGraph(
        grid, stats, options.policy, tie_break, options.duplicate_free,
        options.marking_order, &planner, trace);
    planning_seconds += planning_sw.ElapsedSeconds();
    // Counting scans every edge: pay for it only when someone reads it.
    if (trace != nullptr || artifacts != nullptr) {
      marked_edges = g.CountMarked();
      locked_edges = g.CountLocked();
      span.AddArg("marked", static_cast<int64_t>(marked_edges));
      span.AddArg("locked", static_cast<int64_t>(locked_edges));
    }
    return g;
  }();

  // --- cell placement (Section 6.2) -----------------------------------------
  CellAssignment assignment = [&] {
    obs::ScopedSpan span(trace, "driver-placement", "driver");
    span.SetStringArg("scheduler", options.use_lpt ? "lpt" : "hash");
    if (!options.use_lpt) return CellAssignment::Hash(options.workers);
    Stopwatch planning_sw;
    const std::vector<double> costs =
        PlanCellCosts(grid, stats, &planner, trace);
    CellAssignment lpt = PlanLptAssignment(costs, options.workers, trace);
    planning_seconds += planning_sw.ElapsedSeconds();
    return lpt;
  }();

  if (artifacts != nullptr) {
    artifacts->grid_nx = grid.nx();
    artifacts->grid_ny = grid.ny();
    artifacts->sampled_r = stats.SampleSize(Side::kR);
    artifacts->sampled_s = stats.SampleSize(Side::kS);
    artifacts->marked_edges = marked_edges;
    artifacts->locked_edges = locked_edges;
  }
  const double driver_seconds = driver.ElapsedSeconds();
  if (artifacts != nullptr) {
    artifacts->driver_seconds = driver_seconds;
    artifacts->planning_seconds = planning_seconds;
  }

  // --- distributed execution (Algorithm 5, lines 6-9) -----------------------
  const ReplicationAssigner assigner(&grid, &graph);
  exec::AssignFn assign = [&assigner](const Tuple& t, Side side) {
    return assigner.Assign(t.pt, side);
  };

  exec::EngineOptions engine_options;
  static_cast<exec::ExecOptions&>(engine_options) = options;
  engine_options.eps = options.eps;
  engine_options.deduplicate = !options.duplicate_free;
  // The grid partitions exactly `mbr`; declaring it as the engine's bounds
  // turns silently-clamped out-of-space points into a kInvalidArgument.
  engine_options.bounds = mbr;

  Result<exec::JoinRun> run_result = exec::TryRunPartitionedJoin(
      r, s, assign, assignment.AsOwnerFn(), engine_options);
  if (!run_result.ok()) return run_result.status();
  exec::JoinRun run = run_result.MoveValue();
  // Planning is a subset of the driver time folded into construction; the
  // break-out feeds trace validation and the bench gate.
  run.metrics.measured_planning_seconds = planning_seconds;
  exec::FinishDriverRun(agreements::PolicyName(options.policy), driver_seconds,
                        trace, &run);
  return run;
}

}  // namespace pasjoin::core
