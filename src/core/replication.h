// Copyright 2026 The pasjoin Authors.
//
// Adaptive point replication (Section 5.3): given the duplicate-free graph
// of agreements, computes for each point the set of cells it is assigned to
// (its native cell plus up to 3 replicas). This is the C++ counterpart of
// the paper's Algorithms 2 (area dispatch), 3 (MeDuPAr: merged
// duplicate-prone area) and 4 (SupAr: supplementary areas).
#ifndef PASJOIN_CORE_REPLICATION_H_
#define PASJOIN_CORE_REPLICATION_H_

#include "agreements/agreement_graph.h"
#include "common/small_vector.h"
#include "common/tuple.h"
#include "grid/grid.h"

namespace pasjoin::core {

/// List of cells a point is assigned to. The native cell is always entry 0.
using CellList = SmallVector<grid::CellId, 4>;

/// Maps points to cells under adaptive replication.
///
/// Thread-safe: Assign is const and the referenced grid/graph are immutable
/// after construction, so one assigner can serve all workers (it plays the
/// role of the broadcast grid of Algorithm 5).
class ReplicationAssigner {
 public:
  /// `grid` and `graph` must outlive the assigner; `graph` must already be
  /// duplicate-free (RunDuplicateFreeMarking) unless the caller deliberately
  /// wants the non-duplicate-free variant of Table 6.
  ReplicationAssigner(const grid::Grid* grid,
                      const agreements::AgreementGraph* graph)
      : grid_(grid), graph_(graph), eps2_(grid->eps() * grid->eps()) {}

  /// Algorithm 2: the cells point `p` of relation `side` is assigned to.
  CellList Assign(const Point& p, Side side) const;

 private:
  /// Algorithm 3: assignment for a point in the merged duplicate-prone area
  /// of quartet `q`; `i` is the native cell's position within the quartet.
  void MeDuPAr(grid::QuartetId q, const Point& o,
               agreements::AgreementType tau, int i, CellList* out) const;

  /// Algorithm 4: assignment for a point possibly lying in a supplementary
  /// area of quartet `q`; `i` is the native cell's position.
  void SupAr(grid::QuartetId q, const Point& o, agreements::AgreementType tau,
             int i, CellList* out) const;

  /// Invokes SupAr for the quartet at interior corner (qx, qy), if any.
  void SupArAt(int qx, int qy, const Point& o, agreements::AgreementType tau,
               grid::CellId native, CellList* out) const;

  const grid::Grid* grid_;
  const agreements::AgreementGraph* graph_;
  double eps2_;
};

}  // namespace pasjoin::core

#endif  // PASJOIN_CORE_REPLICATION_H_
