// Copyright 2026 The pasjoin Authors.
//
// Cell-to-worker assignment (Section 6.2). The optimization goal is to
// minimize the maximum estimated join work per worker - an instance of
// multiprocessor scheduling (NP-hard) - solved greedily with LPT (longest
// processing time first), using the sample-estimated per-cell cost
// |R_i| * |S_i|. The alternative is Spark's default hash assignment.
#ifndef PASJOIN_CORE_LPT_SCHEDULER_H_
#define PASJOIN_CORE_LPT_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_index.h"
#include "exec/engine.h"

namespace pasjoin::core {

/// The estimated join cost of one cell: the LPT input.
struct CellCost {
  int32_t cell;
  double cost;
};

/// An immutable partition -> worker mapping.
class CellAssignment {
 public:
  /// Hash assignment: owner(cell) = cell mod workers.
  static CellAssignment Hash(int workers);

  /// LPT assignment for the listed cells' estimated costs: cells sorted by
  /// descending cost (ties by ascending cell), each placed on the currently
  /// least-loaded worker. Only positive-cost cells are stored; every other
  /// cell keeps its hash owner (it carries no join work). Costs must be
  /// finite-or-infinite non-negative numbers; a NaN or negative cost aborts
  /// via PASJOIN_CHECK (NaN breaks the sort's strict weak ordering,
  /// negatives corrupt the load heap).
  static CellAssignment LptOverCells(const std::vector<CellCost>& costs,
                                     int workers);

  /// LptOverCells with `cell_costs[cell]` the cost of every cell.
  static CellAssignment Lpt(const std::vector<double>& cell_costs, int workers);

  /// The owning worker of `cell` in [0, workers).
  int OwnerOf(int32_t cell) const {
    if (lpt_owner_) {
      const int32_t owner = lpt_owner_->Find(cell);
      if (owner != FlatIndex::kAbsent) return owner;
    }
    return static_cast<int>(HashOwner(static_cast<uint32_t>(cell)));
  }

  /// Adapts this assignment to the engine's OwnerFn.
  exec::OwnerFn AsOwnerFn() const {
    CellAssignment copy = *this;
    return [copy](exec::PartitionId p) { return copy.OwnerOf(p); };
  }

  int workers() const { return workers_; }

  /// Estimated per-worker load under this assignment (diagnostics).
  std::vector<double> WorkerLoads(const std::vector<double>& cell_costs) const;

 private:
  explicit CellAssignment(int workers)
      : workers_(workers),
        mod_multiplier_(~uint64_t{0} / static_cast<uint32_t>(workers) + 1) {}

  /// cell % workers without a divide (Lemire, Kaser and Kurz, "Faster
  /// Remainder by Direct Computation", 2019): the fractional part of
  /// cell / workers, held in 64 bits, times workers. Exact for every 32-bit
  /// cell and divisor; a single worker's multiplier wraps to 0.
  uint32_t HashOwner(uint32_t cell) const {
    const uint64_t fraction = mod_multiplier_ * cell;
    return static_cast<uint32_t>((static_cast<unsigned __int128>(fraction) *
                                  static_cast<uint32_t>(workers_)) >>
                                 64);
  }

  int workers_ = 1;
  /// ceil(2^64 / workers), modulo 2^64.
  uint64_t mod_multiplier_ = 0;
  /// LPT owners of the positive-cost cells; null for pure hash assignment.
  std::shared_ptr<const FlatIndex> lpt_owner_;
};

}  // namespace pasjoin::core

#endif  // PASJOIN_CORE_LPT_SCHEDULER_H_
