// Copyright 2026 The pasjoin Authors.
//
// Microbenchmarks of the construction-side hot paths: the admission scan
// (bounds and sample), point location, area classification, adaptive cell
// assignment (Algorithms 2-4, one point at a time and in the map's blocks),
// compiling the graph into the assigner's routes, graph instantiation and
// Algorithm 1 marking. The fixture is the
// 241 x 104 (25k-cell) grid of S1 at eps 0.12.
#include <benchmark/benchmark.h>

#include <span>
#include <utility>
#include <vector>

#include "agreements/agreement_graph.h"
#include "common/rng.h"
#include "core/replication.h"
#include "datagen/generators.h"
#include "grid/grid.h"
#include "grid/stats.h"

namespace pasjoin {
namespace {

struct Fixture {
  grid::Grid grid;
  grid::GridStats stats;
  agreements::AgreementGraph graph;
  Dataset data;
  /// The points of `data` in random order. Generator order is spatially
  /// clustered and kinder to caches than the engine's splits.
  std::vector<Point> shuffled;

  static Fixture Make(size_t n) {
    grid::Grid g =
        grid::Grid::Make(ContinentalUsMbr(), 0.12, 2.0).MoveValue();
    Dataset data = datagen::MakePaperDataset(datagen::PaperDataset::kS1, n);
    grid::GridStats stats(&g);
    stats.AddSample(Side::kR, data, 0.03, 1);
    stats.AddSample(Side::kS, data, 0.03, 2);
    agreements::AgreementGraph graph = agreements::AgreementGraph::Build(
        g, stats, agreements::Policy::kLPiB);
    graph.RunDuplicateFreeMarking();
    std::vector<Point> shuffled;
    shuffled.reserve(data.tuples.size());
    for (const Tuple& t : data.tuples) shuffled.push_back(t.pt);
    Rng rng(3);
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.NextBounded(i)]);
    }
    return Fixture{std::move(g), std::move(stats), std::move(graph),
                   std::move(data), std::move(shuffled)};
  }
};

Fixture& SharedFixture() {
  static Fixture fixture = Fixture::Make(200000);
  return fixture;
}

void BM_GridLocate(benchmark::State& state) {
  const Fixture& f = SharedFixture();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.grid.Locate(f.data.tuples[i].pt));
    i = (i + 1) % f.data.tuples.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GridLocate);

void BM_ClassifyArea(benchmark::State& state) {
  const Fixture& f = SharedFixture();
  size_t i = 0;
  for (auto _ : state) {
    const Point& p = f.data.tuples[i].pt;
    benchmark::DoNotOptimize(f.grid.ClassifyArea(p, f.grid.Locate(p)));
    i = (i + 1) % f.data.tuples.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClassifyArea);

void BM_AdaptiveAssign(benchmark::State& state) {
  const Fixture& f = SharedFixture();
  const core::ReplicationAssigner assigner(&f.grid, &f.graph);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        assigner.Assign(f.shuffled[i], (i & 1) != 0 ? Side::kR : Side::kS));
    i = (i + 1) % f.shuffled.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdaptiveAssign);

/// BM_AdaptiveAssign's points through AssignBatch, in blocks of the map's
/// size; the side alternates by block. Items are points.
void BM_AdaptiveAssignBatch(benchmark::State& state) {
  const Fixture& f = SharedFixture();
  const core::ReplicationAssigner assigner(&f.grid, &f.graph);
  constexpr size_t kBlock = exec::RoutedBlock::kMaxTuples;
  const size_t blocks = f.shuffled.size() / kBlock;
  exec::RoutedBlock out{};
  size_t b = 0;
  for (auto _ : state) {
    assigner.AssignBatch(
        std::span<const Point>(f.shuffled.data() + b * kBlock, kBlock),
        (b & 1) != 0 ? Side::kR : Side::kS, &out);
    benchmark::DoNotOptimize(out);
    b = (b + 1) % blocks;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kBlock));
}
BENCHMARK(BM_AdaptiveAssignBatch);

/// Building the assigner: the route compilation the driver pays once per
/// job, before the map phase.
void BM_CompileRoutes(benchmark::State& state) {
  const Fixture& f = SharedFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ReplicationAssigner(&f.grid, &f.graph));
  }
  state.counters["quartets"] = f.graph.NumMaterialized();
}
BENCHMARK(BM_CompileRoutes);

void BM_GraphBuild(benchmark::State& state) {
  const Fixture& f = SharedFixture();
  const agreements::Policy policy = state.range(0) == 0
                                        ? agreements::Policy::kLPiB
                                        : agreements::Policy::kDiff;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        agreements::AgreementGraph::Build(f.grid, f.stats, policy));
  }
}
BENCHMARK(BM_GraphBuild)->Arg(0)->Arg(1);

void BM_DuplicateFreeMarking(benchmark::State& state) {
  const Fixture& f = SharedFixture();
  for (auto _ : state) {
    state.PauseTiming();
    agreements::AgreementGraph graph = agreements::AgreementGraph::Build(
        f.grid, f.stats, agreements::Policy::kLPiB);
    state.ResumeTiming();
    graph.RunDuplicateFreeMarking();
  }
}
BENCHMARK(BM_DuplicateFreeMarking);

void BM_StatsAdd(benchmark::State& state) {
  const Fixture& f = SharedFixture();
  grid::GridStats stats(&f.grid);
  size_t i = 0;
  for (auto _ : state) {
    stats.Add(Side::kR, f.data.tuples[i].pt);
    i = (i + 1) % f.data.tuples.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatsAdd);

/// The driver's admission scan over the fixture's input: its bounds and a
/// 3% Bernoulli sample in one pass. Items are tuples read.
void BM_ScanInput(benchmark::State& state) {
  const Fixture& f = SharedFixture();
  for (auto _ : state) {
    grid::InputScan scan = grid::ScanInput(f.data, /*fold_bounds=*/true,
                                           grid::SampleDraw{0.03, 1});
    benchmark::DoNotOptimize(scan);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.data.tuples.size()));
}
BENCHMARK(BM_ScanInput);

}  // namespace
}  // namespace pasjoin

BENCHMARK_MAIN();
