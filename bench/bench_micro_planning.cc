// Copyright 2026 The pasjoin Authors.
//
// Microbenchmarks of the driver-side planning pipeline: agreement-graph
// construction, duplicate-free marking, cost-model accumulation, and LPT
// placement (core/planning.h).
//
// Two modes:
//   * default: google-benchmark microbenchmarks of the individual stages;
//   * --json[=PATH]: the machine-readable perf baseline. Runs the full
//     planning pipeline over clustered statistics on fully sampled 512^2
//     and 2048^2 grids and on a sparsely sampled 1581^2 grid (2.5M cells,
//     about 0.8% of them sampled: the paper's unscaled-eps regime),
//     sequentially ("planning-1t") and - on multicore hosts - with
//     min(8, cores) planner threads ("planning-<N>t"), cross-checks that
//     the parallel plan is byte-identical to the sequential one, and
//     writes BENCH_planning.json (validated by tools/check_bench.py; CI
//     gates planning-8t:planning-1t >= 3.0 on 8-core runners).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "agreements/agreement_graph.h"
#include "bench_json.h"
#include "bench_util.h"
#include "common/stopwatch.h"
#include "core/cost_model.h"
#include "core/lpt_scheduler.h"
#include "core/planning.h"
#include "datagen/generators.h"
#include "grid/grid.h"
#include "grid/stats.h"

namespace pasjoin {
namespace {

using agreements::AgreementGraph;
using agreements::MarkingOrder;
using agreements::Policy;
using core::CellAssignment;
using core::CostModel;
using core::CostPrediction;
using core::Planner;
using core::PlanningOptions;
using grid::Grid;
using grid::GridStats;

/// A g x g unit-cell grid (eps 0.5, resolution factor 2) with clustered
/// sample statistics: by default ~cells/2 R points and ~cells/3 S points, so
/// pair decisions see skewed, non-degenerate counts; `points` R + S points
/// sample the grid sparsely instead.
struct PlanningWorkload {
  std::unique_ptr<Grid> grid;
  std::unique_ptr<GridStats> stats;

  static PlanningWorkload Make(int g, size_t points = 0) {
    PlanningWorkload w;
    // The extra 0.5 keeps cell sides strictly above 2*eps, so the grid is
    // exactly g x g cells (an exact division would shrink it by one).
    const Rect mbr{0, 0, g + 0.5, g + 0.5};
    w.grid = std::make_unique<Grid>(Grid::Make(mbr, 0.5, 2.0).MoveValue());
    w.stats = std::make_unique<GridStats>(w.grid.get());
    datagen::GaussianClustersOptions options;
    options.num_clusters = 32;
    options.sigma_min = static_cast<double>(g) / 64.0;
    options.sigma_max = static_cast<double>(g) / 8.0;
    options.mbr = mbr;
    const size_t cells = static_cast<size_t>(w.grid->num_cells());
    const size_t n_r = points == 0 ? cells / 2 : points * 3 / 5;
    const size_t n_s = points == 0 ? cells / 3 : points - n_r;
    const Dataset r = datagen::GenerateGaussianClusters(n_r, 71, options);
    const Dataset s = datagen::GenerateGaussianClusters(n_s, 72, options);
    w.stats->AddSample(Side::kR, r, /*rate=*/1.0, /*seed=*/1);
    w.stats->AddSample(Side::kS, s, /*rate=*/1.0, /*seed=*/2);
    return w;
  }
};

/// One full planning pass: graph + marking, per-cell costs, candidate
/// accounting, prediction, LPT. Returns marked/locked via out-params for
/// the cross-thread-count identity gate.
double RunPlanningPipeline(const PlanningWorkload& w, int threads,
                           size_t* marked, size_t* locked) {
  PlanningOptions options;
  options.threads = threads;
  Planner planner(options);
  const Stopwatch watch;
  const AgreementGraph graph = core::PlanAgreementGraph(
      *w.grid, *w.stats, Policy::kLPiB,
      agreements::AgreementType::kReplicateR,
      /*duplicate_free=*/true, MarkingOrder::kPaper, &planner,
      /*trace=*/nullptr);
  const std::vector<double> costs =
      core::PlanCellCosts(*w.grid, *w.stats, &planner, /*trace=*/nullptr);
  const CostModel model(w.grid.get(), w.stats.get());
  const std::vector<double> candidates = core::PlanPerCellCandidates(
      model, graph, /*trace=*/nullptr);
  const CostPrediction prediction =
      core::PlanPredict(model, graph, /*trace=*/nullptr);
  const CellAssignment assignment =
      core::PlanLptAssignment(costs, /*workers=*/12, /*trace=*/nullptr);
  const double seconds = watch.ElapsedSeconds();
  benchmark::DoNotOptimize(candidates.data());
  benchmark::DoNotOptimize(prediction.total_candidates);
  benchmark::DoNotOptimize(assignment.OwnerOf(0));
  *marked = graph.CountMarked();
  *locked = graph.CountLocked();
  return seconds;
}

// --- google-benchmark mode: individual stages ------------------------------

void BM_BuildAgreementGraph(benchmark::State& state) {
  const PlanningWorkload w =
      PlanningWorkload::Make(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const AgreementGraph graph =
        AgreementGraph::Build(*w.grid, *w.stats, Policy::kLPiB);
    benchmark::DoNotOptimize(graph.NumMaterialized());
  }
  state.SetItemsProcessed(state.iterations() * w.grid->num_quartets());
}
BENCHMARK(BM_BuildAgreementGraph)->Arg(64)->Arg(256)->Arg(512);

void BM_DuplicateFreeMarking(benchmark::State& state) {
  const PlanningWorkload w =
      PlanningWorkload::Make(static_cast<int>(state.range(0)));
  const AgreementGraph built =
      AgreementGraph::Build(*w.grid, *w.stats, Policy::kLPiB);
  for (auto _ : state) {
    state.PauseTiming();
    AgreementGraph graph = built;
    state.ResumeTiming();
    graph.RunDuplicateFreeMarking();
    benchmark::DoNotOptimize(graph.CountMarked());
  }
  state.SetItemsProcessed(state.iterations() * w.grid->num_quartets());
}
BENCHMARK(BM_DuplicateFreeMarking)->Arg(64)->Arg(256)->Arg(512);

void BM_PlanningPipeline(benchmark::State& state) {
  const PlanningWorkload w = PlanningWorkload::Make(256);
  const int threads = static_cast<int>(state.range(0));
  size_t marked = 0, locked = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        RunPlanningPipeline(w, threads, &marked, &locked));
  }
  state.SetItemsProcessed(state.iterations() * w.grid->num_cells());
}
BENCHMARK(BM_PlanningPipeline)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// --- --json mode: the machine-readable perf baseline -----------------------

int RunJsonMode(const std::string& path) {
  const bench::Defaults defaults = bench::GetDefaults();
  const int reps = defaults.time_reps;

  bench::BenchReport report;
  report.benchmark = "planning";
  report.workload = "clustered-grid";
  report.reps = reps;

  // {grid side, sampled points (0: fully sampled)}.
  for (const auto& [g, points] :
       {std::pair<int, size_t>{512, 0}, {2048, 0}, {1581, 20000}}) {
    const PlanningWorkload w = PlanningWorkload::Make(g, points);
    std::fprintf(stderr, "planning workload: %dx%d grid, %zu sampled cells, "
                 "reps=%d\n", g, g, w.stats->Sampled().size(), reps);

    const auto measure = [&](int threads, size_t* marked,
                             size_t* locked) -> double {
      std::vector<double> seconds;
      seconds.reserve(static_cast<size_t>(reps));
      bench::BenchRecord record;
      record.kernel = "planning-" + std::to_string(threads) + "t";
      record.points = static_cast<uint64_t>(w.grid->num_cells());
      record.eps = 0.5;
      for (int i = 0; i < reps; ++i) {
        seconds.push_back(RunPlanningPipeline(w, threads, marked, locked));
      }
      // Candidates = all decided (marked or locked) directed edges;
      // results = the marked subset (the edges whose replication the
      // duplicate-free plan actually removed), so results <= candidates.
      record.candidates = static_cast<uint64_t>(*marked + *locked);
      record.results = static_cast<uint64_t>(*marked);
      record.median_seconds = bench::MedianSeconds(seconds);
      record.p95_seconds = bench::PercentileSeconds(std::move(seconds), 95.0);
      std::fprintf(stderr,
                   "  %-12s cells=%-9llu median=%8.4fs p95=%8.4fs marked=%llu\n",
                   record.kernel.c_str(),
                   static_cast<unsigned long long>(record.points),
                   record.median_seconds, record.p95_seconds,
                   static_cast<unsigned long long>(record.results));
      report.records.push_back(record);
      return record.median_seconds;
    };

    size_t marked_1t = 0, locked_1t = 0;
    measure(/*threads=*/1, &marked_1t, &locked_1t);

    const unsigned hw = std::thread::hardware_concurrency();
    if (hw > 1) {
      const int threads = static_cast<int>(std::min(8u, hw));
      size_t marked_nt = 0, locked_nt = 0;
      measure(threads, &marked_nt, &locked_nt);
      // Byte-identity gate: the parallel plan must mark and lock
      // exactly the sequential edges (the determinism suite checks the
      // full bytes; here the counters guard the perf baseline itself).
      if (marked_nt != marked_1t || locked_nt != locked_1t) {
        std::fprintf(stderr,
                     "FAIL: %d-thread planning marked/locked %zu/%zu but "
                     "1-thread marked/locked %zu/%zu\n",
                     threads, marked_nt, locked_nt, marked_1t, locked_1t);
        return 1;
      }
    } else {
      std::fprintf(stderr,
                   "  planning-Nt skipped: single hardware thread available\n");
    }
  }

  if (!bench::WriteJsonFile(report, path)) return 1;
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace pasjoin

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      return pasjoin::RunJsonMode("BENCH_planning.json");
    }
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      return pasjoin::RunJsonMode(argv[i] + 7);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
