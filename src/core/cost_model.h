// Copyright 2026 The pasjoin Authors.
//
// An analytical cost model for grid-partitioned eps-distance joins - the
// "theoretical cost model" the paper lists as future work (Section 8).
//
// From the per-cell sample statistics alone (no data pass), the model
// predicts for a given graph-of-agreements instance:
//   * how many objects each side replicates,
//   * the shuffled tuple count,
//   * the total and maximum per-cell candidate-pair counts (the paper's
//     "cost per cell", Table 1), and
//   * the per-worker makespan under a cell placement.
// Exact for uniform (PBSM-style) instances under full sampling; for marked
// adaptive instances the duplicate-prone corrections (which move a small
// fraction of corner points) are ignored, yielding a tight upper bound.
//
// The model enables an *auto-policy* extension: instantiate all candidate
// policies, predict, and run the cheapest (RecommendPolicy).
#ifndef PASJOIN_CORE_COST_MODEL_H_
#define PASJOIN_CORE_COST_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "agreements/agreement_graph.h"
#include "grid/grid.h"
#include "grid/stats.h"

namespace pasjoin::core {

/// Predicted execution profile of one join configuration.
struct CostPrediction {
  /// Estimated replica copies created per side.
  double replicated_r = 0.0;
  double replicated_s = 0.0;
  double ReplicatedTotal() const { return replicated_r + replicated_s; }

  /// Estimated tuple instances through the shuffle (natives + replicas).
  double shuffled_tuples = 0.0;

  /// Sum over cells of |R_c| * |S_c| (worst-case candidate pairs).
  double total_candidates = 0.0;
  /// The hottest cell's candidate count.
  double max_cell_candidates = 0.0;

  /// Human-readable one-liner.
  std::string ToString() const;
};

/// Sample-driven cost model over a fixed grid.
class CostModel {
 public:
  /// `grid` and `stats` must outlive the model. Predictions are expressed in
  /// population units via the stats' sampling scale factors.
  CostModel(const grid::Grid* grid, const grid::GridStats* stats)
      : grid_(grid), stats_(stats) {}

  /// Predicts the profile of joining under `graph`'s agreements. The graph
  /// must be built over the same grid.
  CostPrediction Predict(const agreements::AgreementGraph& graph) const;

  /// Per-cell predicted candidate counts (for LPT or load analysis), one
  /// per cell of the grid.
  std::vector<double> PerCellCandidates(
      const agreements::AgreementGraph& graph) const;

  /// The sample counts of one cell before and after replication.
  struct CellEstimate {
    grid::CellId cell;
    /// Sampled points per side whose native cell this is.
    uint32_t native[2];
    /// Natives plus the band points neighbors replicate into this cell.
    uint64_t replicated[2];
  };

  /// The estimates of every cell whose prediction can be nonzero - the
  /// sampled cells and the cells they replicate into - in ascending cell
  /// order. Every sampled cell pushes its band counts to the neighbors its
  /// agreements replicate toward, so the cost is one pass over the sample.
  std::vector<CellEstimate> EstimateCells(
      const agreements::AgreementGraph& graph) const;

  /// Fills out[e.cell] for the n estimates `e` - the chunkable core of
  /// PerCellCandidates. `out` must point at a buffer of num_cells doubles.
  void PerCellCandidatesRange(const CellEstimate* estimates, size_t n,
                              double* out) const;

  /// Predicted makespan (max per-worker candidate count) when cell c is
  /// placed on worker owner(c).
  double PredictMakespan(const agreements::AgreementGraph& graph,
                         const std::vector<int>& owner, int workers) const;

  /// Builds every candidate policy, predicts, and returns the policy with
  /// the fewest predicted total candidates (ties: fewest replicas).
  static agreements::Policy RecommendPolicy(
      const grid::Grid& grid, const grid::GridStats& stats,
      agreements::AgreementType tie_break =
          agreements::AgreementType::kReplicateR);

 private:
  const grid::Grid* grid_;
  const grid::GridStats* stats_;
};

}  // namespace pasjoin::core

#endif  // PASJOIN_CORE_COST_MODEL_H_
