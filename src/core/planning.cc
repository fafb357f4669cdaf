// Copyright 2026 The pasjoin Authors.
#include "core/planning.h"

#include <algorithm>

#include "exec/steal_queue.h"
#include "exec/thread_pool.h"

namespace pasjoin::core {

using agreements::AgreementGraph;
using agreements::AgreementType;
using agreements::MarkingOrder;
using agreements::Policy;

Planner::Planner(const PlanningOptions& options)
    : threads_(options.threads <= 0 ? exec::ThreadPool::DefaultThreads()
                                    : options.threads),
      min_parallel_items_(std::max(1, options.min_parallel_items)) {}

Planner::~Planner() = default;

void Planner::ParallelFor(int count,
                          const std::function<void(int, int)>& body) {
  if (count <= 0) return;
  if (!WouldParallelize(count)) {
    body(0, count);
    return;
  }
  if (pool_ == nullptr) {
    pool_ = std::make_unique<exec::ThreadPool>(threads_);
  }
  exec::StealQueue queue(count, threads_,
                         exec::StealQueue::DefaultGrain(count, threads_));
  for (int home = 0; home < threads_; ++home) {
    pool_->Submit([home, &queue, &body] {
      int begin = 0;
      int end = 0;
      while (queue.Next(home, &begin, &end)) body(begin, end);
    });
  }
  // Wait() is also the happens-before edge that publishes the runners' slot
  // writes to the driver thread; it rethrows the first task exception.
  pool_->Wait();
}

AgreementGraph PlanAgreementGraph(const grid::Grid& grid,
                                  const grid::GridStats& stats, Policy policy,
                                  AgreementType tie_break, bool duplicate_free,
                                  MarkingOrder order, Planner* planner,
                                  obs::TraceRecorder* trace) {
  // The pairs span covers PrepareBuild too: listing what the sample touched
  // is part of deciding the pairs, and trace validation reconciles the
  // planning spans against the driver's planning stopwatch.
  AgreementGraph g = [&] {
    obs::ScopedSpan span(trace, "planning-pairs", "planning");
    AgreementGraph built =
        AgreementGraph::PrepareBuild(grid, stats, policy, tie_break);
    span.AddArg("pairs", built.NumDecidedPairs());
    planner->ParallelFor(built.NumPairAnchors(),
                         [&built, &stats](int begin, int end) {
                           built.DecidePairRange(stats, begin, end);
                         });
    return built;
  }();
  {
    obs::ScopedSpan span(trace, "planning-subgraphs", "planning");
    span.AddArg("quartets", g.NumMaterialized());
    planner->ParallelFor(g.NumMaterialized(), [&g, &stats](int begin, int end) {
      g.MaterializeSubgraphRange(stats, begin, end);
    });
  }
  if (!duplicate_free) return g;

  obs::ScopedSpan span(trace, "planning-marking", "planning");
  span.AddArg("quartets", g.NumMaterialized());
  planner->ParallelFor(g.NumMaterialized(), [&g, order](int begin, int end) {
    g.MarkRange(begin, end, order);
  });
  g.FinishMarking();
  return g;
}

std::vector<CellCost> PlanSampledCellCosts(const grid::GridStats& stats,
                                           obs::TraceRecorder* trace) {
  obs::ScopedSpan span(trace, "planning-costs", "planning");
  span.AddArg("cells", static_cast<int64_t>(stats.Sampled().size()));
  std::vector<CellCost> costs;
  for (const grid::CellCounts& c : stats.Sampled()) {
    costs.push_back(CellCost{c.cell, stats.EstimatedCost(c)});
  }
  return costs;
}

std::vector<double> PlanCellCosts(const grid::Grid& grid,
                                  const grid::GridStats& stats,
                                  Planner* /*planner*/,
                                  obs::TraceRecorder* trace) {
  std::vector<double> costs(static_cast<size_t>(grid.num_cells()), 0.0);
  for (const CellCost& c : PlanSampledCellCosts(stats, trace)) {
    costs[static_cast<size_t>(c.cell)] = c.cost;
  }
  return costs;
}

std::vector<double> PlanPerCellCandidates(const CostModel& model,
                                          const AgreementGraph& graph,
                                          obs::TraceRecorder* trace) {
  obs::ScopedSpan span(trace, "planning-costs", "planning");
  return model.PerCellCandidates(graph);
}

CostPrediction PlanPredict(const CostModel& model, const AgreementGraph& graph,
                           obs::TraceRecorder* trace) {
  obs::ScopedSpan span(trace, "planning-costs", "planning");
  return model.Predict(graph);
}

CellAssignment PlanLptAssignment(const std::vector<CellCost>& costs,
                                 int workers, obs::TraceRecorder* trace) {
  obs::ScopedSpan span(trace, "planning-lpt", "planning");
  span.AddArg("cells", static_cast<int64_t>(costs.size()));
  span.AddArg("workers", workers);
  return CellAssignment::LptOverCells(costs, workers);
}

CellAssignment PlanLptAssignment(const std::vector<double>& cell_costs,
                                 int workers, obs::TraceRecorder* trace) {
  obs::ScopedSpan span(trace, "planning-lpt", "planning");
  span.AddArg("cells", static_cast<int64_t>(cell_costs.size()));
  span.AddArg("workers", workers);
  return CellAssignment::Lpt(cell_costs, workers);
}

}  // namespace pasjoin::core
