// Copyright 2026 The pasjoin Authors.
//
// The paper's contribution, end to end (Algorithm 5): the parallel
// eps-distance spatial join with adaptive replication.
//
//   1. build the grid over the data MBR (l > 2*eps);
//   2. sample both inputs and load the per-cell statistics;
//   3. instantiate the graph of agreements (LPiB or DIFF) and run
//      Algorithm 1 to make the assignment duplicate-free;
//   4. map every tuple to cells via adaptive replication (Algorithms 2-4);
//   5. shuffle, then plane-sweep + refine per cell, with cells placed on
//      workers by LPT or hash.
//
// This is the primary public entry point of the library.
#ifndef PASJOIN_CORE_ADAPTIVE_JOIN_H_
#define PASJOIN_CORE_ADAPTIVE_JOIN_H_

#include <cstdint>

#include "agreements/agreement_graph.h"
#include "common/status.h"
#include "common/tuple.h"
#include "core/driver.h"
#include "core/planning.h"
#include "exec/engine.h"

namespace pasjoin::core {

/// Configuration of an adaptive-replication join: the shared JoinOptions
/// (eps, data space, execution knobs) plus the plan's own choices. The
/// trace gains driver spans for the grid, sampling, agreement graph and
/// placement.
struct AdaptiveJoinOptions : JoinOptions {
  /// Agreement instantiation policy (LPiB and DIFF are the paper's variants;
  /// UniformR/UniformS degrade the algorithm to PBSM-on-this-engine).
  agreements::Policy policy = agreements::Policy::kLPiB;
  /// Cell side as a multiple of eps (Figure 15 sweeps 2..5).
  double resolution_factor = 2.0;
  /// Bernoulli sampling rate for the statistics (paper default: 3%).
  double sample_rate = 0.03;
  /// Seed of the sampling step.
  uint64_t sample_seed = 0x5a5a5a5a;
  /// Place cells on workers with LPT (true, Section 6.2) or hash (false).
  bool use_lpt = true;
  /// When false, skips Algorithm 1 (marking) and instead removes duplicate
  /// results with a parallel distinct step - the costly variant of Table 6.
  bool duplicate_free = true;
  /// Edge-examination order of Algorithm 1 (kPaper is the paper's order;
  /// the alternatives exist for ablations).
  agreements::MarkingOrder marking_order = agreements::MarkingOrder::kPaper;
  /// Parallel-planning configuration (core/planning.h): how many threads
  /// run the driver-side pipeline (agreement graph, marking, costs). The
  /// results are byte-identical for every thread count.
  PlanningOptions planning;
};

/// Diagnostics of the construction phase, for experiments and debugging.
struct AdaptiveJoinArtifacts {
  int grid_nx = 0;
  int grid_ny = 0;
  uint64_t sampled_r = 0;
  uint64_t sampled_s = 0;
  size_t marked_edges = 0;
  size_t locked_edges = 0;
  /// Driver time: sampling + statistics + graph instantiation + Algorithm 1
  /// + scheduler (already included in the metrics' construction time).
  double driver_seconds = 0.0;
  /// The planning portion of driver_seconds: agreement graph + marking +
  /// per-cell costs + LPT, as run by the (possibly parallel) planner. Also
  /// reported as JobMetrics::measured_planning_seconds.
  double planning_seconds = 0.0;
};

/// Runs the adaptive-replication eps-distance join R join_eps S.
///
/// On success the returned run's metrics carry all paper observables;
/// `run.pairs` is filled when `options.collect_results`.
[[nodiscard]] Result<exec::JoinRun> AdaptiveDistanceJoin(
    const Dataset& r, const Dataset& s, const AdaptiveJoinOptions& options,
    AdaptiveJoinArtifacts* artifacts = nullptr);

}  // namespace pasjoin::core

#endif  // PASJOIN_CORE_ADAPTIVE_JOIN_H_
