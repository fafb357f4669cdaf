// Copyright 2026 The pasjoin Authors.
#include "core/cost_model.h"

#include <memory>

#include <gtest/gtest.h>

#include "core/adaptive_join.h"
#include "datagen/generators.h"
#include "exec/engine.h"

namespace pasjoin::core {
namespace {

using agreements::AgreementGraph;
using agreements::AgreementType;
using agreements::Policy;

// GridStats stores a pointer to the grid, so both live behind stable heap
// addresses and the scenario exposes references.
struct Scenario {
  std::unique_ptr<grid::Grid> grid_ptr;
  std::unique_ptr<grid::GridStats> stats_ptr;
  Dataset r, s;
  const grid::Grid& grid;
  const grid::GridStats& stats;

  static Scenario Make(size_t n, double rate = 1.0) {
    datagen::GaussianClustersOptions options;
    options.num_clusters = 8;
    options.sigma_min = 0.3;
    options.sigma_max = 1.5;
    options.mbr = Rect{0, 0, 40, 30};
    Dataset r = datagen::GenerateGaussianClusters(n, 31, options);
    Dataset s = datagen::GenerateGaussianClusters(n, 32, options);
    auto g = std::make_unique<grid::Grid>(
        grid::Grid::Make(options.mbr, 0.5, 2.0).MoveValue());
    auto stats = std::make_unique<grid::GridStats>(g.get());
    stats->AddSample(Side::kR, r, rate, 1);
    stats->AddSample(Side::kS, s, rate, 2);
    const grid::Grid& grid_ref = *g;
    const grid::GridStats& stats_ref = *stats;
    return Scenario{std::move(g), std::move(stats), std::move(r), std::move(s),
                    grid_ref, stats_ref};
  }
};

/// Runs a join on the engine and returns its measured metrics, using the
/// nested-loop local join so that measured candidates equal |R_c| * |S_c|.
exec::JobMetrics Measure(const Scenario& setup, Policy policy) {
  AdaptiveJoinOptions options;
  options.eps = 0.5;
  options.policy = policy;
  options.workers = 4;
  options.physical_threads = 2;
  options.sample_rate = 1.0;
  options.mbr = Rect{0, 0, 40, 30};
  Result<exec::JoinRun> run = AdaptiveDistanceJoin(setup.r, setup.s, options);
  EXPECT_TRUE(run.ok());
  return run.value().metrics;
}

TEST(CostModelTest, ExactReplicationForUniformPolicies) {
  const Scenario setup = Scenario::Make(3000);
  const CostModel model(&setup.grid, &setup.stats);
  for (const Policy policy : {Policy::kUniformR, Policy::kUniformS}) {
    const AgreementGraph graph =
        AgreementGraph::Build(setup.grid, setup.stats, policy);
    const CostPrediction pred = model.Predict(graph);
    const exec::JobMetrics measured = Measure(setup, policy);
    // Uniform replication on full statistics is predicted exactly.
    EXPECT_DOUBLE_EQ(pred.ReplicatedTotal(),
                     static_cast<double>(measured.ReplicatedTotal()));
    EXPECT_DOUBLE_EQ(pred.shuffled_tuples,
                     static_cast<double>(measured.shuffled_tuples));
    if (policy == Policy::kUniformR) {
      EXPECT_EQ(pred.replicated_s, 0.0);
    } else {
      EXPECT_EQ(pred.replicated_r, 0.0);
    }
  }
}

TEST(CostModelTest, AdaptivePredictionIsATightUpperBound) {
  const Scenario setup = Scenario::Make(3000);
  const CostModel model(&setup.grid, &setup.stats);
  for (const Policy policy : {Policy::kLPiB, Policy::kDiff}) {
    AgreementGraph graph =
        AgreementGraph::Build(setup.grid, setup.stats, policy);
    graph.RunDuplicateFreeMarking();
    const CostPrediction pred = model.Predict(graph);
    const exec::JobMetrics measured = Measure(setup, policy);
    // Marking removes some corner-point replication and the supplementary
    // areas add a little back; the model ignores both corrections, so the
    // measurement must stay within a tight band around the prediction.
    const double ratio = static_cast<double>(measured.ReplicatedTotal()) /
                         pred.ReplicatedTotal();
    EXPECT_GT(ratio, 0.85) << agreements::PolicyName(policy);
    EXPECT_LT(ratio, 1.10) << agreements::PolicyName(policy);
  }
}

TEST(CostModelTest, CandidatePredictionTracksMeasurement) {
  const Scenario setup = Scenario::Make(4000);
  const CostModel model(&setup.grid, &setup.stats);
  const AgreementGraph graph =
      AgreementGraph::Build(setup.grid, setup.stats, Policy::kUniformR);
  const CostPrediction pred = model.Predict(graph);
  // Measured candidates with a nested-loop local join equal the per-cell
  // products exactly.
  AdaptiveJoinOptions options;
  options.eps = 0.5;
  options.policy = Policy::kUniformR;
  options.workers = 4;
  options.physical_threads = 2;
  options.sample_rate = 1.0;
  options.mbr = Rect{0, 0, 40, 30};
  Result<exec::JoinRun> run = AdaptiveDistanceJoin(setup.r, setup.s, options);
  ASSERT_TRUE(run.ok());
  // The engine's plane sweep prunes, so the model upper-bounds it.
  EXPECT_GE(pred.total_candidates,
            static_cast<double>(run.value().metrics.candidates));
  EXPECT_GT(pred.total_candidates, 0.0);
  EXPECT_GT(pred.max_cell_candidates, 0.0);
  EXPECT_LE(pred.max_cell_candidates, pred.total_candidates);
}

TEST(CostModelTest, SampledPredictionsApproximateFullOnes) {
  const Scenario full = Scenario::Make(20000, 1.0);
  const Scenario sampled = Scenario::Make(20000, 0.1);
  const AgreementGraph g_full =
      AgreementGraph::Build(full.grid, full.stats, Policy::kUniformR);
  const AgreementGraph g_sampled =
      AgreementGraph::Build(sampled.grid, sampled.stats, Policy::kUniformR);
  const CostPrediction p_full = CostModel(&full.grid, &full.stats).Predict(g_full);
  const CostPrediction p_sampled =
      CostModel(&sampled.grid, &sampled.stats).Predict(g_sampled);
  EXPECT_NEAR(p_sampled.ReplicatedTotal() / p_full.ReplicatedTotal(), 1.0, 0.2);
  // The per-cell product estimator is unbiased but high-variance on dense
  // cells, hence the wider band.
  EXPECT_NEAR(p_sampled.total_candidates / p_full.total_candidates, 1.0, 0.35);
}

TEST(CostModelTest, AdaptivePoliciesPredictCheaperThanUniform) {
  const Scenario setup = Scenario::Make(8000);
  const CostModel model(&setup.grid, &setup.stats);
  double uniform_best_repl = 1e300;
  for (const Policy policy : {Policy::kUniformR, Policy::kUniformS}) {
    const AgreementGraph graph =
        AgreementGraph::Build(setup.grid, setup.stats, policy);
    uniform_best_repl =
        std::min(uniform_best_repl, model.Predict(graph).ReplicatedTotal());
  }
  const AgreementGraph lpib =
      AgreementGraph::Build(setup.grid, setup.stats, Policy::kLPiB);
  EXPECT_LE(model.Predict(lpib).ReplicatedTotal(), uniform_best_repl);
}

TEST(CostModelTest, RecommendPolicyPicksAnAdaptiveVariantOnSkewedData) {
  const Scenario setup = Scenario::Make(8000);
  const Policy policy =
      CostModel::RecommendPolicy(setup.grid, setup.stats);
  EXPECT_TRUE(policy == Policy::kLPiB || policy == Policy::kDiff)
      << agreements::PolicyName(policy);
}

TEST(CostPredictionTest, ToStringNeverTruncates) {
  // Regression: ToString used a fixed 256-byte snprintf buffer; %.0f of a
  // huge magnitude expands to ~310 characters per field, so four such
  // fields were silently cut off mid-line.
  CostPrediction pred;
  pred.replicated_r = 1e300;
  pred.replicated_s = 1e300;
  pred.shuffled_tuples = 1e300;
  pred.total_candidates = 1e300;
  pred.max_cell_candidates = 1e300;
  const std::string line = pred.ToString();
  EXPECT_GT(line.size(), 1000u);
  // Every field survives, including the trailing ones.
  EXPECT_NE(line.find("repl="), std::string::npos);
  EXPECT_NE(line.find("shuffled="), std::string::npos);
  EXPECT_NE(line.find("candidates=1.000e+300"), std::string::npos);
  EXPECT_NE(line.find("max-cell=1.000e+300"), std::string::npos);
}

TEST(CostModelTest, RangeApisMatchTheSequentialWholeGridResults) {
  const Scenario setup = Scenario::Make(3000);
  const CostModel model(&setup.grid, &setup.stats);
  const AgreementGraph graph =
      AgreementGraph::Build(setup.grid, setup.stats, Policy::kLPiB);
  const int cells = setup.grid.num_cells();
  const std::vector<CostModel::CellEstimate> near = model.EstimateCells(graph);

  // PerCellCandidatesRange over arbitrary chunk boundaries fills the same
  // slots as the whole-grid call; cells away from the sample predict 0.
  const std::vector<double> whole = model.PerCellCandidates(graph);
  std::vector<double> chunked(static_cast<size_t>(cells), 0.0);
  for (size_t begin = 0; begin < near.size(); begin += 37) {
    model.PerCellCandidatesRange(near.data() + begin,
                                 std::min<size_t>(37, near.size() - begin),
                                 chunked.data());
  }
  ASSERT_EQ(whole.size(), chunked.size());
  for (int c = 0; c < cells; ++c) {
    EXPECT_EQ(whole[static_cast<size_t>(c)], chunked[static_cast<size_t>(c)])
        << c;
  }

  // Predict folds the same per-cell counts in ascending cell order, so its
  // totals are the whole-grid sums bit-for-bit (the cells between add 0).
  double total = 0.0;
  double max_cell = 0.0;
  for (const double c : whole) {
    total += c;
    max_cell = std::max(max_cell, c);
  }
  const CostPrediction direct = model.Predict(graph);
  EXPECT_EQ(direct.total_candidates, total);
  EXPECT_EQ(direct.max_cell_candidates, max_cell);
}

TEST(CostModelTest, PredictMakespanRespectsPlacement) {
  const Scenario setup = Scenario::Make(3000);
  const CostModel model(&setup.grid, &setup.stats);
  const AgreementGraph graph =
      AgreementGraph::Build(setup.grid, setup.stats, Policy::kUniformR);
  const std::vector<double> per_cell = model.PerCellCandidates(graph);
  double total = 0;
  for (double c : per_cell) total += c;
  // All cells on one worker: makespan == total.
  std::vector<int> all_one(per_cell.size(), 0);
  EXPECT_DOUBLE_EQ(model.PredictMakespan(graph, all_one, 4), total);
  // Spread by hash: makespan strictly less than total (data is spread).
  std::vector<int> hashed(per_cell.size());
  for (size_t c = 0; c < hashed.size(); ++c) hashed[c] = static_cast<int>(c % 4);
  EXPECT_LT(model.PredictMakespan(graph, hashed, 4), total);
  // And at least total / workers.
  EXPECT_GE(model.PredictMakespan(graph, hashed, 4), total / 4 - 1e-9);
}

}  // namespace
}  // namespace pasjoin::core
