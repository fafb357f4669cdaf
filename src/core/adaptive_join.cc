// Copyright 2026 The pasjoin Authors.
#include "core/adaptive_join.h"

#include "core/driver.h"
#include "core/replication.h"

namespace pasjoin::core {

Result<exec::JoinRun> AdaptiveDistanceJoin(const Dataset& r, const Dataset& s,
                                           const AdaptiveJoinOptions& options,
                                           AdaptiveJoinArtifacts* artifacts) {
  PASJOIN_RETURN_NOT_OK(
      exec::ValidateThreads(options.planning.threads, "planning threads"));
  Result<Driver> admitted = Driver::Admit(
      r, s, options,
      Sampling::BothSides(options.sample_rate, options.sample_seed));
  if (!admitted.ok()) return admitted.status();
  Driver& driver = admitted.value();
  obs::TraceRecorder* const trace = options.trace;

  // --- grid + sampling + statistics (Algorithm 5, lines 4-5) ---------------
  Result<grid::Grid> grid_result =
      driver.MakeGrid(options.resolution_factor, /*baseline=*/false);
  if (!grid_result.ok()) return grid_result.status();
  const grid::Grid grid = grid_result.MoveValue();
  const grid::GridStats stats = driver.Sample(grid);

  // --- graph of agreements (Sections 4-5) ----------------------------------
  // Statistically undecidable pairs default to replicating the globally
  // smaller relation. The planner runs this pipeline across host cores
  // (core/planning.h) with byte-identical results to a sequential build.
  Planner planner(options.planning);
  const agreements::AgreementType tie_break = agreements::AgreementFor(
      r.tuples.size() <= s.tuples.size() ? Side::kR : Side::kS);
  size_t marked_edges = 0;
  size_t locked_edges = 0;
  // The graph is compiled into the assigner's route bytes and destroyed
  // here, so it holds no heap while the engine runs.
  const ReplicationAssigner assigner = [&] {
    obs::ScopedSpan span(trace, "driver-agreement-graph", "driver");
    const agreements::AgreementGraph graph = driver.Plan([&] {
      return PlanAgreementGraph(grid, stats, options.policy, tie_break,
                                options.duplicate_free, options.marking_order,
                                &planner, trace);
    });
    // Counting scans every edge: pay for it only when someone reads it.
    if (trace != nullptr || artifacts != nullptr) {
      marked_edges = graph.CountMarked();
      locked_edges = graph.CountLocked();
      span.AddArg("marked", static_cast<int64_t>(marked_edges));
      span.AddArg("locked", static_cast<int64_t>(locked_edges));
    }
    ReplicationAssigner compiled(&grid, &graph);
    span.AddArg("route_quartets", compiled.num_route_quartets());
    span.AddArg("route_anchors", compiled.num_route_anchors());
    return compiled;
  }();

  // --- cell placement (Section 6.2) -----------------------------------------
  const CellAssignment assignment =
      driver.Place(options.use_lpt ? &stats : nullptr);

  if (artifacts != nullptr) {
    artifacts->grid_nx = grid.nx();
    artifacts->grid_ny = grid.ny();
    artifacts->sampled_r = stats.SampleSize(Side::kR);
    artifacts->sampled_s = stats.SampleSize(Side::kS);
    artifacts->marked_edges = marked_edges;
    artifacts->locked_edges = locked_edges;
    artifacts->driver_seconds = driver.ElapsedSeconds();
    artifacts->planning_seconds = driver.planning_seconds();
  }

  // --- distributed execution (Algorithm 5, lines 6-9) -----------------------
  return driver.Run(r, s, AdaptiveRouter(&assigner, &assignment),
                    agreements::PolicyName(options.policy),
                    /*deduplicate=*/!options.duplicate_free);
}

}  // namespace pasjoin::core
