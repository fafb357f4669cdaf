// Copyright 2026 The pasjoin Authors.
#include "core/driver.h"

#include <span>
#include <utility>

#include "exec/metrics.h"

namespace pasjoin::core {

namespace {

/// The router of a uniform grid join: a tuple of the replicated side goes
/// to grid::CellsWithinEps, any other to its native cell, and each cell to
/// its owner under `placement`, with no type-erased call per tuple or per
/// instance. The grid and the placement must outlive the router. Its range
/// is the grid's cells.
class UniformGridRouter final : public exec::Router {
 public:
  UniformGridRouter(const grid::Grid* grid, const CellAssignment* placement,
                    Side replicated)
      : grid_(grid), placement_(placement), replicated_(replicated) {}

  size_t Route(std::span<const Tuple> tuples, Side side,
               exec::RoutedBlock* out) const override {
    size_t end = 0;
    size_t k = 0;
    for (; k < tuples.size(); ++k) {
      if (side == replicated_) {
        const SmallVector<grid::CellId, 4> cells =
            grid::CellsWithinEps(*grid_, tuples[k].pt);
        if (cells.size() > exec::RoutedBlock::kMaxInstances - end) break;
        for (size_t j = 0; j < cells.size(); ++j) out->part[end++] = cells[j];
      } else {
        if (end == exec::RoutedBlock::kMaxInstances) break;
        out->part[end++] = grid_->Locate(tuples[k].pt);
      }
      out->end[k] = end;
    }
    for (size_t j = 0; j < end; ++j) {
      out->owner[j] = placement_->OwnerOf(out->part[j]);
    }
    return k;
  }

  exec::PartitionId partition_count() const override {
    return grid_->num_cells();
  }

 private:
  const grid::Grid* grid_;
  const CellAssignment* placement_;
  Side replicated_;
};

}  // namespace

Result<Driver> Driver::Admit(const Dataset& r, const Dataset& s,
                             const JoinOptions& options,
                             std::optional<Sampling> sampling) {
  PASJOIN_RETURN_NOT_OK(exec::ValidateEps(options.eps));
  if (r.tuples.empty() || s.tuples.empty()) {
    return Status::InvalidArgument("both join inputs must be non-empty");
  }
  if (sampling && !(sampling->rate > 0.0 && sampling->rate <= 1.0)) {
    return Status::InvalidArgument("sample rate must be in (0, 1]");
  }
  PASJOIN_RETURN_NOT_OK(exec::AdmitJob(options));
  Driver driver;
  static_cast<exec::ExecOptions&>(driver.engine_) = options;
  driver.engine_.eps = options.eps;

  obs::ScopedSpan span(driver.trace(), "driver-scan", "driver");
  const bool declared = options.mbr.Area() > 0.0;
  int64_t scanned = 0;
  Rect bounds[2];
  for (const Side side : {Side::kR, Side::kS}) {
    const int i = static_cast<int>(side);
    const Dataset& input = side == Side::kR ? r : s;
    std::optional<grid::SampleDraw> draw;
    if (sampling && sampling->seed[i]) {
      draw = grid::SampleDraw{sampling->rate, *sampling->seed[i]};
    }
    driver.population_[i] = input.tuples.size();
    if (declared && !draw) continue;
    grid::InputScan scan = grid::ScanInput(input, !declared, draw);
    bounds[i] = scan.bounds;
    driver.drawn_[i] = std::move(scan.sample);
    scanned += static_cast<int64_t>(input.tuples.size());
  }
  driver.engine_.bounds = declared ? options.mbr : bounds[0].Union(bounds[1]);
  span.AddArg("tuples", scanned);
  span.AddArg("sampled_r", static_cast<int64_t>(driver.drawn_[0].size()));
  span.AddArg("sampled_s", static_cast<int64_t>(driver.drawn_[1].size()));
  return driver;
}

Result<grid::Grid> Driver::MakeGrid(double resolution_factor,
                                    bool baseline) const {
  obs::ScopedSpan span(trace(), "driver-grid", "driver");
  return baseline ? grid::Grid::MakeForBaseline(space(), engine_.eps,
                                                resolution_factor)
                  : grid::Grid::Make(space(), engine_.eps, resolution_factor);
}

grid::GridStats Driver::Sample(const grid::Grid& grid) {
  obs::ScopedSpan span(trace(), "driver-sample", "driver");
  grid::GridStats stats(&grid);
  for (const Side side : {Side::kR, Side::kS}) {
    const std::vector<Point> drawn = TakeSample(side);
    stats.AddDrawn(side, drawn, population_[static_cast<int>(side)]);
  }
  stats.SortCells();
  span.AddArg("sampled_r", static_cast<int64_t>(stats.SampleSize(Side::kR)));
  span.AddArg("sampled_s", static_cast<int64_t>(stats.SampleSize(Side::kS)));
  span.AddArg("sampled_cells", static_cast<int64_t>(stats.Sampled().size()));
  return stats;
}

CellAssignment Driver::Place(const grid::GridStats* stats) {
  obs::ScopedSpan span(trace(), "driver-placement", "driver");
  span.SetStringArg("scheduler", stats != nullptr ? "lpt" : "hash");
  if (stats == nullptr) return CellAssignment::Hash(engine_.workers);
  return Plan([&] {
    return PlanLptAssignment(PlanSampledCellCosts(*stats, trace()),
                             engine_.workers, trace());
  });
}

Result<exec::JoinRun> Driver::Run(const Dataset& r, const Dataset& s,
                                  const exec::Router& router,
                                  const char* algorithm, bool deduplicate,
                                  bool self_join) {
  const double driver_seconds = ElapsedSeconds();
  engine_.deduplicate = deduplicate;
  engine_.self_join = self_join;
  Result<exec::JoinRun> run =
      exec::TryRunPartitionedJoin(r, s, router, engine_);
  if (!run.ok()) return run;
  exec::JobMetrics& m = run.value().metrics;
  m.algorithm = algorithm;
  // Planning is a subset of the driver time folded into construction; the
  // break-out feeds trace validation and the bench gate.
  m.measured_planning_seconds = planning_seconds_;
  m.construction_seconds += driver_seconds;
  m.measured_construction_seconds += driver_seconds;
  if (trace() != nullptr) {
    // The engine exported its metrics before the driver time was known;
    // this export replaces it.
    exec::PublishMetrics(m, &trace()->exported());
    trace()->exported().gauges.emplace_back("driver_seconds", driver_seconds);
  }
  return run;
}

Result<exec::JoinRun> UniformGridDistanceJoin(const Dataset& r,
                                              const Dataset& s,
                                              const UniformGridJoin& join,
                                              const JoinOptions& options) {
  Result<Driver> admitted =
      Driver::Admit(r, s, options, /*sampling=*/std::nullopt);
  if (!admitted.ok()) return admitted.status();
  Driver& driver = admitted.value();
  Result<grid::Grid> grid_result =
      driver.MakeGrid(join.resolution_factor, /*baseline=*/true);
  if (!grid_result.ok()) return grid_result.status();
  const grid::Grid grid = grid_result.MoveValue();
  const CellAssignment placement = driver.Place(/*stats=*/nullptr);

  return driver.Run(r, s, UniformGridRouter(&grid, &placement, join.replicated),
                    join.algorithm, /*deduplicate=*/false, join.self_join);
}

}  // namespace pasjoin::core
