// Copyright 2026 The pasjoin Authors.
//
// ReplicationAssigner::AssignBatch against its scalar reference Assign: on
// every point, for both relations, with duplicate-free marking on and off,
// the batch must give the same cells in the same order. The points are the
// adversarial ones for its branch-free pass 1: exactly on cell borders and
// quartet corners, exactly eps (and one ulp either way) from a border,
// outside the MBR (clamped into an edge cell) and on its max edges. The
// grids are small ones with every agreement randomized, the 1 x N and
// N x 1 grids (side pairs but no quartets) and a 2.5M-cell grid with a
// sparse sample. AdaptiveRouter, the map's router over AssignBatch, must
// also write exactly the blocks a per-tuple router over Assign writes.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "agreements/agreement_graph.h"
#include "common/rng.h"
#include "core/lpt_scheduler.h"
#include "core/planning.h"
#include "core/replication.h"
#include "datagen/generators.h"
#include "exec/shuffle.h"
#include "grid/grid.h"
#include "grid/stats.h"
#include "test_util.h"

namespace pasjoin::core {
namespace {

using agreements::AgreementGraph;
using agreements::Policy;
using grid::Grid;
using grid::GridStats;

struct Case {
  const char* name;
  Rect mbr;
  double eps;
  double resolution_factor;
  /// Flip agreements at random (small grids only: it materializes every
  /// quartet).
  bool randomize;
  /// Interior corners the adversarial points surround; every one when 0.
  size_t corners;
};

constexpr Case kCases[] = {
    {"2eps cells", Rect{0, 0, 8.02, 5.03}, 0.2, 2.0, true, 0},
    {"column", Rect{0, 0, 0.45, 40}, 0.2, 2.5, true, 0},
    {"row", Rect{0, 0, 40, 0.45}, 0.2, 2.5, true, 0},
    {"2.5M cells", Rect{0, 0, 1000, 625}, 0.2, 2.5, false, 400},
};

/// Offsets from a grid line that land on it, exactly eps or 2 * eps from
/// it, one ulp either side of eps, and in between.
std::vector<double> Offsets(double line, double eps) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> out;
  for (const double d : {0.0, 0.5 * eps, eps, 1.5 * eps, 2.0 * eps}) {
    out.push_back(line - d);
    out.push_back(line + d);
  }
  for (const double at : {line - eps, line + eps}) {
    out.push_back(std::nextafter(at, -inf));
    out.push_back(std::nextafter(at, inf));
  }
  return out;
}

/// The adversarial points of `c` over `grid`, then `data`'s points.
std::vector<Point> AdversarialPoints(const Case& c, const Grid& grid,
                                     const Dataset& data) {
  std::vector<Point> out;
  const Rect& mbr = grid.mbr();
  Rng rng(11);
  // Corners, including the boundary ones, and the borders between them.
  std::vector<std::pair<int, int>> corners;
  if (c.corners == 0) {
    for (int qx = 0; qx <= grid.nx(); ++qx) {
      for (int qy = 0; qy <= grid.ny(); ++qy) corners.emplace_back(qx, qy);
    }
  } else {
    // Around data points, where the sparse plan has its quartets.
    for (size_t k = 0; k < c.corners; ++k) {
      const Point& p = data.tuples[rng.NextBounded(data.tuples.size())].pt;
      const grid::CellCoord cell = grid.LocateCell(p);
      corners.emplace_back(cell.x + 1, cell.y + 1);
    }
  }
  for (const auto& [qx, qy] : corners) {
    const Point corner = grid.CornerPoint(qx, qy);
    for (const double x : Offsets(corner.x, grid.eps())) {
      for (const double y : Offsets(corner.y, grid.eps())) {
        out.push_back(Point{x, y});
      }
    }
  }
  // Clamped from outside the MBR, and on its max edges.
  for (int k = 0; k < 200; ++k) {
    const double x = rng.NextUniform(mbr.min_x, mbr.max_x);
    const double y = rng.NextUniform(mbr.min_y, mbr.max_y);
    for (const Point p :
         {Point{mbr.min_x - 1.0, y}, Point{mbr.max_x + 1.0, y},
          Point{x, mbr.min_y - 1.0}, Point{x, mbr.max_y + 1.0},
          Point{mbr.min_x - 1e9, mbr.max_y + 1e9}, Point{mbr.max_x, y},
          Point{x, mbr.max_y}, Point{mbr.max_x, mbr.max_y},
          Point{mbr.min_x, mbr.min_y}}) {
      out.push_back(p);
    }
  }
  for (const Tuple& t : data.tuples) out.push_back(t.pt);
  return out;
}

/// Everything one case routes with.
struct Plan {
  Grid grid;
  Dataset data;
  std::vector<Point> points;
  GridStats stats;
};

Plan MakePlan(const Case& c) {
  Grid grid = Grid::Make(c.mbr, c.eps, c.resolution_factor).MoveValue();
  datagen::GaussianClustersOptions clusters;
  clusters.num_clusters = 20;
  clusters.sigma_min = 0.5;
  clusters.sigma_max = 8.0;
  clusters.mbr = c.mbr;
  Dataset data = datagen::GenerateGaussianClusters(20000, 5, clusters);
  std::vector<Point> points = AdversarialPoints(c, grid, data);
  GridStats stats(&grid);
  stats.AddSample(Side::kR, data, c.randomize ? 0.5 : 0.03, 1);
  stats.AddSample(Side::kS, data, c.randomize ? 0.5 : 0.03, 2);
  return Plan{std::move(grid), std::move(data), std::move(points),
              std::move(stats)};
}

AgreementGraph MakeGraph(const Case& c, const Plan& plan,
                         bool duplicate_free) {
  AgreementGraph graph =
      AgreementGraph::Build(plan.grid, plan.stats, Policy::kLPiB);
  if (c.randomize) graph.RandomizeForTesting(3);
  if (duplicate_free) graph.RunDuplicateFreeMarking();
  return graph;
}

std::string Where(const Case& c, bool duplicate_free, Side side,
                  size_t block, size_t k) {
  return std::string(c.name)
      .append(duplicate_free ? " df" : " distinct")
      .append(side == Side::kR ? " R" : " S")
      .append(" block ")
      .append(std::to_string(block))
      .append(" point ")
      .append(std::to_string(k));
}

TEST(AssignBatchTest, MatchesAssignOnAdversarialPoints) {
  for (const Case& c : kCases) {
    const Plan plan = MakePlan(c);
    for (const bool duplicate_free : {true, false}) {
      const AgreementGraph graph = MakeGraph(c, plan, duplicate_free);
      const ReplicationAssigner assigner(&plan.grid, &graph);
      for (const Side side : {Side::kR, Side::kS}) {
        std::vector<std::vector<grid::CellId>> want;
        want.reserve(plan.points.size());
        for (const Point& p : plan.points) {
          want.push_back(assigner.Assign(p, side).ToVector());
        }
        for (const size_t block : {size_t{1}, size_t{255}, size_t{256}}) {
          exec::RoutedBlock out{};
          size_t mismatches = 0;
          for (size_t at = 0; at < plan.points.size(); at += block) {
            const size_t n = std::min(block, plan.points.size() - at);
            assigner.AssignBatch(
                std::span<const Point>(plan.points).subspan(at, n), side,
                &out);
            size_t begin = 0;
            for (size_t k = 0; k < n; ++k) {
              const std::vector<grid::CellId> got(
                  out.part.begin() + static_cast<std::ptrdiff_t>(begin),
                  out.part.begin() + static_cast<std::ptrdiff_t>(out.end[k]));
              begin = out.end[k];
              if (got != want[at + k] && ++mismatches <= 5) {
                ADD_FAILURE() << Where(c, duplicate_free, side, block, at + k)
                              << " at (" << plan.points[at + k].x << ", "
                              << plan.points[at + k].y << ")";
              }
            }
          }
          EXPECT_EQ(mismatches, 0u)
              << Where(c, duplicate_free, side, block, 0);
        }
      }
    }
  }
}

/// Requires two routed splits to hold the same staged instances and
/// counters, and to fill the same blocks when the other side reaches every
/// partition.
void ExpectSameOutput(const exec::MapSplit& split, exec::StagedSplit got,
                      exec::StagedSplit want,
                      const exec::EngineOptions& options,
                      const std::string& where) {
  ASSERT_TRUE(got.error.ok()) << where << ": " << got.error.ToString();
  ASSERT_TRUE(want.error.ok()) << where << ": " << want.error.ToString();
  ASSERT_EQ(got.instances.size(), want.instances.size()) << where;
  for (size_t k = 0; k < got.instances.size(); ++k) {
    EXPECT_EQ(got.instances[k].row, want.instances[k].row) << where;
    EXPECT_EQ(got.instances[k].part, want.instances[k].part) << where;
    EXPECT_EQ(got.instances[k].dest, want.instances[k].dest) << where;
  }
  EXPECT_EQ(got.replicated, want.replicated) << where;
  EXPECT_EQ(got.shuffled_tuples, want.shuffled_tuples) << where;
  EXPECT_EQ(got.shuffle_bytes, want.shuffle_bytes) << where;
  EXPECT_EQ(got.remote_bytes, want.remote_bytes) << where;
  exec::ReachSet every;
  for (const exec::StagedInstance& inst : want.instances) {
    every.Mark(Side::kR, inst.part);
    every.Mark(Side::kS, inst.part);
  }
  exec::FillScratch scratch;
  const exec::MapTaskOutput got_fill = exec::FillSplit(
      split, &got, every, options, /*consume=*/false, &scratch, nullptr);
  const exec::MapTaskOutput want_fill = exec::FillSplit(
      split, &want, every, options, /*consume=*/false, &scratch, nullptr);
  EXPECT_EQ(want_fill.instances, want.instances.size()) << where;
  ASSERT_EQ(got_fill.by_worker.size(), want_fill.by_worker.size()) << where;
  for (size_t w = 0; w < got_fill.by_worker.size(); ++w) {
    EXPECT_EQ(got_fill.by_worker[w].part, want_fill.by_worker[w].part)
        << where;
    EXPECT_EQ(got_fill.by_worker[w].id, want_fill.by_worker[w].id) << where;
  }
  EXPECT_EQ(got_fill.block_bytes, want_fill.block_bytes) << where;
}

TEST(AssignBatchTest, AdaptiveRouterWritesThePerTupleRoutersBlocks) {
  constexpr int kWorkers = 7;
  for (const Case& c : kCases) {
    const Plan plan = MakePlan(c);
    const Dataset points =
        pasjoin::testing::MakeDataset(plan.points, 0, c.name);
    const CellAssignment placement = PlanLptAssignment(
        PlanSampledCellCosts(plan.stats, /*trace=*/nullptr), kWorkers,
        /*trace=*/nullptr);
    exec::EngineOptions options;
    options.workers = kWorkers;
    for (const bool duplicate_free : {true, false}) {
      const AgreementGraph graph = MakeGraph(c, plan, duplicate_free);
      const ReplicationAssigner assigner(&plan.grid, &graph);
      const AdaptiveRouter router(&assigner, &placement);
      const exec::AssignFn assign = [&assigner](const Tuple& t, Side side) {
        return assigner.Assign(t.pt, side);
      };
      const exec::OwnerFn owner = placement.AsOwnerFn();
      const exec::FnRouter reference(assign, owner);
      // Splits of one tuple, of one short of a router block, of one block
      // and of one tuple past it, over the first points.
      for (const size_t length :
           {size_t{1}, size_t{255}, size_t{256}, size_t{257}}) {
        for (const Side side : {Side::kR, Side::kS}) {
          for (size_t begin = 0; begin + length <= points.tuples.size() &&
                                 begin < 40 * length;
               begin += length) {
            const exec::MapSplit split{&points, side, begin, begin + length,
                                       /*home=*/2};
            exec::ReachSet reach;
            ExpectSameOutput(
                split,
                exec::RouteSplit(split, router, options, &reach, nullptr),
                exec::RouteSplit(split, reference, options, &reach, nullptr),
                options, Where(c, duplicate_free, side, length, begin));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace pasjoin::core
