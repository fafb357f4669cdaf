// Copyright 2026 The pasjoin Authors.
//
// Adaptive point replication (Section 5.3): given the duplicate-free graph
// of agreements, computes for each point the set of cells it is assigned to
// (its native cell plus up to 3 replicas). This is the C++ counterpart of
// the paper's Algorithms 2 (area dispatch), 3 (MeDuPAr: merged
// duplicate-prone area) and 4 (SupAr: supplementary areas).
//
// The graph predicates of Algorithms 3 and 4 depend only on the quartet,
// the native cell's position in it and the point's relation, so the
// assigner evaluates them once, at construction, into one route byte per
// (quartet, position, relation). Per point only the geometric tests remain
// (docs/ALGORITHM.md §5). The map assigns its tuples in blocks
// (AssignBatch), through the AdaptiveRouter at the end of this file.
#ifndef PASJOIN_CORE_REPLICATION_H_
#define PASJOIN_CORE_REPLICATION_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "agreements/agreement_graph.h"
#include "common/flat_index.h"
#include "common/small_vector.h"
#include "common/tuple.h"
#include "core/lpt_scheduler.h"
#include "exec/engine.h"
#include "grid/grid.h"

namespace pasjoin::core {

/// List of cells a point is assigned to. The native cell is always entry 0.
using CellList = SmallVector<grid::CellId, 4>;

/// Maps points to cells under adaptive replication.
///
/// Thread-safe: Assign is const and the assigner owns immutable copies of
/// the grid and of the compiled routes, so one assigner can serve all
/// workers (it plays the role of the broadcast grid and graph of Algorithm
/// 5). It keeps no reference to the graph, which may be destroyed as soon
/// as the assigner is built.
class ReplicationAssigner {
 public:
  /// Compiles `graph`'s routes over `grid`; neither needs to outlive the
  /// assigner. `graph` must already be duplicate-free
  /// (RunDuplicateFreeMarking) unless the caller deliberately wants the
  /// non-duplicate-free variant of Table 6.
  ReplicationAssigner(const grid::Grid* grid,
                      const agreements::AgreementGraph* graph);

  /// The grid the assigner routes over.
  const grid::Grid& grid() const { return grid_; }

  /// Algorithm 2: the cells point `p` of relation `side` is assigned to.
  /// The scalar reference of AssignBatch.
  CellList Assign(const Point& p, Side side) const;

  /// Assign for each of `points` (at most exec::RoutedBlock::kMaxTuples),
  /// all of relation `side`: point k's cells go to out->part in Assign's
  /// order, ending at out->end[k]. Owners are left to the caller. Pass 1
  /// locates every point and its near borders without branches, pass 2
  /// reads every route byte the block needs in one loop of independent
  /// loads, and pass 3 runs Assign's geometric tests on them.
  void AssignBatch(std::span<const Point> points, Side side,
                   exec::RoutedBlock* out) const;

  /// Quartets and pair anchors with compiled routes; every other quartet
  /// and side pair takes the graph's defaults.
  int num_route_quartets() const { return static_cast<int>(routes_.size()); }
  int num_route_anchors() const { return num_anchors_; }

 private:
  /// Route bytes of one quartet, indexed by position * 2 + agreement type.
  using Routes = std::array<uint8_t, 8>;

  /// The route byte of quartet `q` for the native cell at position `i` and
  /// agreement type `s`.
  uint8_t RouteOf(grid::QuartetId q, int i, int s) const;

  /// Algorithm 4 on the quartet at interior corner (qx, qy), whose
  /// reference point lies within 2 * eps of `p`: follows the redirects
  /// `route` lists for the native cell at position `i`. `Cells` is CellList
  /// or AssignBatch's view of one point's cells.
  template <typename Cells>
  void FollowRedirects(uint8_t route, int qx, int qy, int i, const Point& p,
                       Cells* out) const;

  /// Algorithm 4 on the quartet at corner (qx, qy), if it is interior and
  /// its reference point lies within 2 * eps of `p`. `native` is a cell of
  /// that quartet; `s` is the point's agreement type.
  void SupArAt(int qx, int qy, grid::CellCoord native, const Point& p, int s,
               CellList* out) const;

  grid::Grid grid_;
  double eps2_;
  /// Materialized quartets: their slot in routes_.
  FlatIndex quartet_slot_;
  std::vector<Routes> routes_;
  /// Every other quartet.
  Routes default_routes_{};
  /// Pair anchors: the right pair's type in bit 0, the upper pair's in
  /// bit 1. Every other anchor has default_pairs_.
  FlatIndex anchor_pairs_;
  int32_t default_pairs_ = 0;
  int num_anchors_ = 0;
};

/// The adaptive join's map router: each block's cells from AssignBatch,
/// each cell's owner from the placement, with no type-erased call per
/// tuple or per instance. Both must outlive the router.
class AdaptiveRouter final : public exec::Router {
 public:
  AdaptiveRouter(const ReplicationAssigner* assigner,
                 const CellAssignment* placement)
      : assigner_(assigner), placement_(placement) {}

  /// Routes every tuple of `tuples`.
  size_t Route(std::span<const Tuple> tuples, Side side,
               exec::RoutedBlock* out) const override;

 private:
  const ReplicationAssigner* assigner_;
  const CellAssignment* placement_;
};

}  // namespace pasjoin::core

#endif  // PASJOIN_CORE_REPLICATION_H_
