// Copyright 2026 The pasjoin Authors.
//
// The parallel planning pipeline: the driver-side construction steps —
// pair-agreement decisions, quartet marking/locking, per-cell cost
// estimation, LPT placement — run across host cores on the same StealQueue +
// ThreadPool machinery as the engine's data phases, while staying
// BYTE-IDENTICAL to the sequential order:
//
//   * Every step iterates only what the sample touched: the pair anchors and
//     quartets next to a sampled cell, and the sampled cells themselves.
//     Nothing here is sized by the grid.
//   * Pair decisions, subgraph materialization and marking write disjoint
//     per-slot state; Algorithm 1 reads and writes only the marked quartet's
//     own subgraph (it sorts that quartet's 12 edges, for every marking
//     order), so any execution order yields the same bytes.
//   * Costs are one pass over the sampled cells (or, for the cost model,
//     over the cells the sample replicates into): cheaper than a pool
//     dispatch, so they stay on the driver thread.
//
// Each phase is traced as a driver-track span ("planning-pairs",
// "planning-subgraphs", "planning-marking", "planning-costs",
// "planning-lpt"); tools/trace_summary.py --validate reconciles their sum
// against the job's measured_planning_seconds gauge.
#ifndef PASJOIN_CORE_PLANNING_H_
#define PASJOIN_CORE_PLANNING_H_

#include <functional>
#include <memory>
#include <vector>

#include "agreements/agreement_graph.h"
#include "common/macros.h"
#include "core/cost_model.h"
#include "core/lpt_scheduler.h"
#include "grid/grid.h"
#include "grid/stats.h"
#include "obs/trace_recorder.h"

namespace pasjoin::exec {
class ThreadPool;
}  // namespace pasjoin::exec

namespace pasjoin::core {

/// Configuration of the parallel planner.
struct PlanningOptions {
  /// Planning threads: 0 = auto (host hardware concurrency, at most
  /// ThreadPool::kMaxThreads), 1 = fully sequential (never spins up a
  /// pool), n > 1 = exactly n pool threads. AdaptiveDistanceJoin rejects
  /// counts outside [0, ThreadPool::kMaxThreads].
  int threads = 0;
  /// Loops shorter than this stay sequential regardless of `threads` (the
  /// pool + steal-queue setup costs more than the loop). Tests lower it to
  /// force the parallel path on small grids.
  int min_parallel_items = 8192;
};

/// Runs planning loops either inline or across a lazily created thread
/// pool. Results are independent of the thread count by construction: every
/// chunk writes its own slots. Not thread-safe itself — one Planner belongs
/// to one driver thread; the pool is created on first parallel loop and
/// reused for the rest of the planning pipeline.
class Planner {
 public:
  explicit Planner(const PlanningOptions& options);
  ~Planner();

  PASJOIN_DISALLOW_COPY(Planner);

  /// The resolved thread count (>= 1).
  int threads() const { return threads_; }

  /// True when a loop over `count` items would run on the pool.
  bool WouldParallelize(int count) const {
    return threads_ > 1 && count >= min_parallel_items_;
  }

  /// Invokes body(begin, end) over disjoint chunks covering [0, count).
  /// Sequential (one inline body(0, count) call) unless WouldParallelize;
  /// otherwise the chunks are claimed from a StealQueue by `threads()` pool
  /// runners and this call blocks until all finish. `body` must tolerate
  /// concurrent invocations on disjoint ranges; a thrown exception is
  /// rethrown here after the loop drains.
  void ParallelFor(int count, const std::function<void(int, int)>& body);

 private:
  const int threads_;
  const int min_parallel_items_;
  std::unique_ptr<exec::ThreadPool> pool_;
};

/// Builds the agreement graph (and, when `duplicate_free`, runs Algorithm 1)
/// on `planner`'s threads. Byte-identical to AgreementGraph::Build +
/// RunDuplicateFreeMarking(order) for every thread count. Emits
/// planning-pairs / planning-subgraphs / planning-marking driver spans into
/// `trace` (nullable).
agreements::AgreementGraph PlanAgreementGraph(
    const grid::Grid& grid, const grid::GridStats& stats,
    agreements::Policy policy, agreements::AgreementType tie_break,
    bool duplicate_free, agreements::MarkingOrder order, Planner* planner,
    obs::TraceRecorder* trace);

/// The estimated join cost |R_c| * |S_c| of every sampled cell (the LPT
/// input of Section 6.2; every other cell costs 0), in
/// GridStats::Sampled order. Emits planning-costs.
std::vector<CellCost> PlanSampledCellCosts(const grid::GridStats& stats,
                                           obs::TraceRecorder* trace);

/// Dense adapter of PlanSampledCellCosts: the cost of every cell of `grid`.
/// `planner` is unused.
std::vector<double> PlanCellCosts(const grid::Grid& grid,
                                  const grid::GridStats& stats,
                                  Planner* planner, obs::TraceRecorder* trace);

/// CostModel::PerCellCandidates in a planning-costs span.
std::vector<double> PlanPerCellCandidates(
    const CostModel& model, const agreements::AgreementGraph& graph,
    obs::TraceRecorder* trace);

/// CostModel::Predict in a planning-costs span.
CostPrediction PlanPredict(const CostModel& model,
                           const agreements::AgreementGraph& graph,
                           obs::TraceRecorder* trace);

/// CellAssignment::Lpt wrapped in the planning-lpt span (the greedy LPT
/// placement itself is inherently sequential; costs come from the parallel
/// helpers above).
CellAssignment PlanLptAssignment(const std::vector<CellCost>& costs,
                                 int workers, obs::TraceRecorder* trace);
/// Dense adapter: `cell_costs[cell]` is the cost of every cell.
CellAssignment PlanLptAssignment(const std::vector<double>& cell_costs,
                                 int workers, obs::TraceRecorder* trace);

}  // namespace pasjoin::core

#endif  // PASJOIN_CORE_PLANNING_H_
