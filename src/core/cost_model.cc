// Copyright 2026 The pasjoin Authors.
#include "core/cost_model.h"

#include <algorithm>

#include "common/flat_index.h"
#include "common/macros.h"
#include "common/str_append.h"

namespace pasjoin::core {

using agreements::AgreementGraph;
using agreements::AgreementType;
using agreements::Policy;
using agreements::ReplicatedSide;
using grid::CellId;

std::string CostPrediction::ToString() const {
  // Built on string appends: %.0f of a large replica estimate expands to
  // hundreds of digits, which a fixed 256-byte snprintf buffer silently
  // truncated (the same bug class JobMetrics::ToString had before PR 5).
  std::string out;
  AppendF(&out, "repl=%.0f (R %.0f / S %.0f) shuffled=%.0f ", ReplicatedTotal(),
          replicated_r, replicated_s, shuffled_tuples);
  AppendF(&out, "candidates=%.3e max-cell=%.3e", total_candidates,
          max_cell_candidates);
  return out;
}

std::vector<CostModel::CellEstimate> CostModel::EstimateCells(
    const AgreementGraph& graph) const {
  const grid::Grid& grid = *grid_;
  std::vector<CellEstimate> out;
  FlatIndex slot_of;
  slot_of.Reserve(2 * stats_->Sampled().size());
  const auto at = [&out, &slot_of](CellId cell) -> CellEstimate& {
    const auto slot = static_cast<size_t>(
        slot_of.Insert(cell, static_cast<int32_t>(out.size())));
    if (slot == out.size()) out.push_back(CellEstimate{cell, {0, 0}, {0, 0}});
    return out[slot];
  };
  for (const grid::CellCounts& counts : stats_->Sampled()) {
    const CellId cell = counts.cell;
    CellEstimate& self = at(cell);
    for (int side = 0; side < 2; ++side) {
      self.native[side] = counts.total[side];
      self.replicated[side] += counts.total[side];
    }
    const int cx = grid.CellX(cell);
    const int cy = grid.CellY(cell);
    for (int dir = 0; dir < 8; ++dir) {
      int dx, dy;
      grid::DirOffset(dir, &dx, &dy);
      if (!grid.HasCell(cx + dx, cy + dy)) continue;
      const CellId nbr = grid.CellIdOf(cx + dx, cy + dy);
      // Agreement between `cell` and the neighbor. A diagonal pair is owned
      // by the quartet at the shared corner.
      AgreementType type;
      if (dx != 0 && dy != 0) {
        const grid::QuartetId q =
            grid.QuartetIdOf(cx + (dx > 0 ? 1 : 0), cy + (dy > 0 ? 1 : 0));
        const int pos = (dx < 0 ? 1 : 0) | (dy < 0 ? 2 : 0);  // of `cell`
        type = graph.Subgraph(q).type[pos][grid::DiagonalOf(pos)];
      } else {
        type = graph.PairTypeToward(cell, dx, dy);
      }
      const int side = static_cast<int>(ReplicatedSide(type));
      if (counts.band[side][dir] > 0) {
        at(nbr).replicated[side] += counts.band[side][dir];
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const CellEstimate& a, const CellEstimate& b) {
              return a.cell < b.cell;
            });
  return out;
}

void CostModel::PerCellCandidatesRange(const CellEstimate* estimates,
                                       size_t n, double* out) const {
  for (size_t i = 0; i < n; ++i) {
    const CellEstimate& e = estimates[i];
    out[static_cast<size_t>(e.cell)] =
        static_cast<double>(e.replicated[0]) * stats_->Scale(Side::kR) *
        (static_cast<double>(e.replicated[1]) * stats_->Scale(Side::kS));
  }
}

std::vector<double> CostModel::PerCellCandidates(
    const AgreementGraph& graph) const {
  std::vector<double> out(static_cast<size_t>(grid_->num_cells()), 0.0);
  const std::vector<CellEstimate> estimates = EstimateCells(graph);
  PerCellCandidatesRange(estimates.data(), estimates.size(), out.data());
  return out;
}

CostPrediction CostModel::Predict(const AgreementGraph& graph) const {
  CostPrediction pred;
  const double scale_r = stats_->Scale(Side::kR);
  const double scale_s = stats_->Scale(Side::kS);
  for (const CellEstimate& e : EstimateCells(graph)) {
    const double est_r = static_cast<double>(e.replicated[0]) * scale_r;
    const double est_s = static_cast<double>(e.replicated[1]) * scale_s;
    pred.replicated_r += est_r - e.native[0] * scale_r;
    pred.replicated_s += est_s - e.native[1] * scale_s;
    const double candidates = est_r * est_s;
    pred.total_candidates += candidates;
    pred.max_cell_candidates = std::max(pred.max_cell_candidates, candidates);
  }
  pred.shuffled_tuples =
      pred.ReplicatedTotal() +
      static_cast<double>(stats_->SampleSize(Side::kR)) * scale_r +
      static_cast<double>(stats_->SampleSize(Side::kS)) * scale_s;
  return pred;
}

double CostModel::PredictMakespan(const AgreementGraph& graph,
                                  const std::vector<int>& owner,
                                  int workers) const {
  PASJOIN_CHECK(workers >= 1);
  const std::vector<double> per_cell = PerCellCandidates(graph);
  PASJOIN_CHECK(owner.size() >= per_cell.size());
  std::vector<double> load(static_cast<size_t>(workers), 0.0);
  for (size_t c = 0; c < per_cell.size(); ++c) {
    const int w = owner[c];
    PASJOIN_DCHECK(w >= 0 && w < workers);
    load[static_cast<size_t>(w)] += per_cell[c];
  }
  return *std::max_element(load.begin(), load.end());
}

Policy CostModel::RecommendPolicy(const grid::Grid& grid,
                                  const grid::GridStats& stats,
                                  AgreementType tie_break) {
  const CostModel model(&grid, &stats);
  Policy best = Policy::kLPiB;
  CostPrediction best_pred;
  bool first = true;
  for (const Policy policy : {Policy::kLPiB, Policy::kDiff, Policy::kUniformR,
                              Policy::kUniformS}) {
    const AgreementGraph graph =
        AgreementGraph::Build(grid, stats, policy, tie_break);
    const CostPrediction pred = model.Predict(graph);
    const bool better =
        first || pred.total_candidates < best_pred.total_candidates ||
        (pred.total_candidates == best_pred.total_candidates &&
         pred.ReplicatedTotal() < best_pred.ReplicatedTotal());
    if (better) {
      best = policy;
      best_pred = pred;
      first = false;
    }
  }
  return best;
}

}  // namespace pasjoin::core
