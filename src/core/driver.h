// Copyright 2026 The pasjoin Authors.
//
// The driver pipeline every point join shares. Algorithm 5 is one pipeline,
// and Sections 4.4 and 7.1 make PBSM an instance of the same
// grid-partitioned dataflow:
//
//   admit -> scan (data space + drawn sample) -> grid -> sample statistics
//         -> place cells -> route
//         -> engine run (map / shuffle / join), driver time folded in.
//
// A Driver owns the steps that do not depend on the join: admission and
// the one pass over each input that finds the data space and draws the
// sample, the grid, the sample statistics and placement with their driver
// spans and the planning clock, and the engine epilogue. A join adds only
// what is its own: the graph of agreements (AdaptiveDistanceJoin), the
// quadtree (SedonaLikeDistanceJoin), or just the one-side router of
// UniformGridDistanceJoin, which SelfDistanceJoin and PbsmDistanceJoin are.
#ifndef PASJOIN_CORE_DRIVER_H_
#define PASJOIN_CORE_DRIVER_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "core/planning.h"
#include "exec/engine.h"

namespace pasjoin::core {

/// The options every point join shares: the execution knobs, forwarded to
/// the engine unchanged, plus the join distance and the data space.
/// AdaptiveJoinOptions, SelfJoinOptions, PbsmOptions and SedonaOptions
/// derive from it and add only what their join decides. The deadline also
/// covers the driver's construction steps, and the trace gains driver spans
/// for them.
struct JoinOptions : exec::ExecOptions {
  /// Join distance threshold (required, > 0).
  double eps = 0.0;
  /// Data-space MBR; computed from the inputs when it has no area. An
  /// explicit MBR also becomes the engine's declared bounds: inputs with
  /// points outside it are rejected with kInvalidArgument instead of being
  /// silently clamped into edge partitions.
  Rect mbr;
};

/// The sample a join draws: one Bernoulli rate, and the seed of each side
/// it samples (nullopt for a side it does not).
struct Sampling {
  /// Both sides at `rate`, R drawn with `seed` and S with `seed + 1`.
  static Sampling BothSides(double rate, uint64_t seed) {
    return Sampling{rate, {seed, seed + 1}};
  }

  double rate = 0.0;
  /// Indexed by Side.
  std::optional<uint64_t> seed[2];
};

/// One driver call, from admission to the engine's result.
class Driver {
 public:
  /// Admits a join of `r` and `s` under `options`: eps positive and finite,
  /// both inputs non-empty, the sampling rate in (0, 1] when the join
  /// samples (nullopt when it does not), then exec::AdmitJob. Starts the
  /// driver clock, then reads each input once in a driver-scan span: it
  /// folds the inputs' MBR unless `options.mbr` has area (the data space is
  /// that MBR or the inputs') and draws the side's sample (grid::ScanInput).
  /// A rejected join reads no tuple.
  [[nodiscard]] static Result<Driver> Admit(const Dataset& r, const Dataset& s,
                                            const JoinOptions& options,
                                            std::optional<Sampling> sampling);

  /// The data space. It is also the engine's declared bounds, so a point
  /// outside an explicit MBR is rejected instead of clamped into an edge
  /// cell.
  const Rect& space() const { return engine_.bounds; }
  obs::TraceRecorder* trace() const { return engine_.trace; }

  /// The grid over the data space, built in a driver-grid span:
  /// Grid::Make, or Grid::MakeForBaseline when `baseline`.
  [[nodiscard]] Result<grid::Grid> MakeGrid(double resolution_factor,
                                            bool baseline) const;

  /// Builds the per-cell statistics of both sides' drawn samples over
  /// `grid`, in a driver-sample span, and frees the drawn points.
  grid::GridStats Sample(const grid::Grid& grid);

  /// Hands over the points drawn from `side`; the driver keeps none.
  std::vector<Point> TakeSample(Side side) {
    return std::exchange(drawn_[static_cast<int>(side)], {});
  }

  /// Runs a planning step on the planning clock. The clock must cover
  /// exactly the planning-* spans that trace validation reconciles it with.
  template <typename Step>
  auto Plan(Step&& step) {
    const Stopwatch watch;
    auto out = step();
    planning_seconds_ += watch.ElapsedSeconds();
    return out;
  }

  /// Places cells on workers in a driver-placement span: LPT over the
  /// sampled cells' costs when `stats` is set (Section 6.2), hash
  /// otherwise.
  CellAssignment Place(const grid::GridStats* stats);

  /// Seconds since admission.
  double ElapsedSeconds() const { return clock_.ElapsedSeconds(); }
  /// The planning portion of the driver time.
  double planning_seconds() const { return planning_seconds_; }

  /// The engine epilogue: runs the dataflow with the job's execution knobs,
  /// eps and bounds = data space, names the run `algorithm`, reports the
  /// planning time and folds the driver time into construction.
  [[nodiscard]] Result<exec::JoinRun> Run(const Dataset& r,
                                          const Dataset& s,
                                          const exec::Router& router,
                                          const char* algorithm,
                                          bool deduplicate = false,
                                          bool self_join = false);

 private:
  Driver() = default;

  /// The job's execution knobs plus eps and the data space as bounds.
  exec::EngineOptions engine_;
  Stopwatch clock_;
  double planning_seconds_ = 0.0;
  /// Per side: the points drawn at admission and the input's size.
  std::vector<Point> drawn_[2];
  size_t population_[2] = {0, 0};
};

/// A uniform one-side grid join (PBSM, Sections 4.4 and 7.1): tuples of the
/// replicated side go to every cell within eps, native cell first; the
/// other side goes to its native cell only, so every pair is found in
/// exactly one cell. Cells are placed on workers by hash, the paper's
/// baseline setup.
struct UniformGridJoin {
  /// The run's algorithm name.
  const char* algorithm = "";
  /// Cell side as a multiple of eps (any factor > 0).
  double resolution_factor = 2.0;
  Side replicated = Side::kR;
  /// Both inputs are one relation: the engine keeps each unordered pair
  /// once.
  bool self_join = false;
};

/// Runs `join` over `r` and `s` under the caller's `options`.
[[nodiscard]] Result<exec::JoinRun> UniformGridDistanceJoin(
    const Dataset& r, const Dataset& s, const UniformGridJoin& join,
    const JoinOptions& options);

}  // namespace pasjoin::core

#endif  // PASJOIN_CORE_DRIVER_H_
