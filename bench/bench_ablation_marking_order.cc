// Copyright 2026 The pasjoin Authors.
//
// Ablation: the edge-processing order of Algorithm 1 (Section 5.2). The
// paper examines corner-touching (diagonal) edges first - their marking
// needs no supplementary replication (Corollary 4.9) - and sorts by
// descending weight within each group. This harness compares that order
// against weight-only and arbitrary index order: replication and candidate
// counts per order (correctness is order-independent; verified in tests).
#include <cstdio>

#include "agreements/agreement_graph.h"
#include "bench_util.h"
#include "core/adaptive_join.h"
#include "core/cost_model.h"
#include "core/lpt_scheduler.h"
#include "core/replication.h"
#include "grid/grid.h"
#include "grid/stats.h"

int main() {
  using namespace pasjoin;
  using namespace pasjoin::bench;
  const Defaults defaults = GetDefaults();
  PrintBanner("Ablation - Algorithm 1 edge-processing order",
              "metric: replicated objects and candidate pairs per order");

  for (const Combo& combo : {PaperCombos()[0], PaperCombos()[1]}) {
    const Dataset& r = PaperData(
        combo.left, ScaledCount(defaults.base_n, combo.left_scale));
    const Dataset& s = PaperData(
        combo.right, ScaledCount(defaults.base_n, combo.right_scale));
    const Rect mbr = r.Mbr().Union(s.Mbr());
    const grid::Grid grid =
        grid::Grid::Make(mbr, defaults.eps, 2.0).MoveValue();
    grid::GridStats stats(&grid);
    stats.AddSample(Side::kR, r, defaults.sample_rate, 1);
    stats.AddSample(Side::kS, s, defaults.sample_rate, 2);
    const agreements::AgreementType tie_break = agreements::AgreementFor(
        r.tuples.size() <= s.tuples.size() ? Side::kR : Side::kS);

    std::printf("\n[%s]  LPiB instantiation\n", combo.name.c_str());
    std::printf("%-14s %14s %14s %12s %12s\n", "order", "replicated",
                "candidates", "marked", "locked");
    for (const auto order : {agreements::MarkingOrder::kPaper,
                             agreements::MarkingOrder::kWeightDescending,
                             agreements::MarkingOrder::kIndexOrder}) {
      agreements::AgreementGraph graph = agreements::AgreementGraph::Build(
          grid, stats, agreements::Policy::kLPiB, tie_break);
      graph.RunDuplicateFreeMarking(order);
      const core::ReplicationAssigner assigner(&grid, &graph);
      exec::AssignFn assign = [&assigner](const Tuple& t, Side side) {
        return assigner.Assign(t.pt, side);
      };
      exec::EngineOptions engine_options;
      engine_options.eps = defaults.eps;
      engine_options.workers = defaults.workers;
      const Result<exec::JoinRun> result = exec::TryRunPartitionedJoin(
          r, s, assign,
          core::CellAssignment::Hash(defaults.workers).AsOwnerFn(),
          engine_options);
      if (!result.ok()) {
        std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
        return 1;
      }
      const exec::JoinRun& run = result.value();
      std::printf("%-14s %14s %14s %12zu %12zu\n",
                  agreements::MarkingOrderName(order),
                  WithCommas(run.metrics.ReplicatedTotal()).c_str(),
                  WithCommas(run.metrics.candidates).c_str(),
                  graph.CountMarked(), graph.CountLocked());
    }
  }
  std::printf("\nexpectation: the paper's order marks the cheap (diagonal)\n"
              "edges first and saves the most replication.\n");
  return 0;
}
