// Copyright 2026 The pasjoin Authors.
#include "core/lpt_scheduler.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <queue>

#include "common/macros.h"

namespace pasjoin::core {

CellAssignment CellAssignment::Hash(int workers) {
  PASJOIN_CHECK(workers >= 1);
  return CellAssignment(workers);
}

CellAssignment CellAssignment::LptOverCells(const std::vector<CellCost>& costs,
                                            int workers) {
  PASJOIN_CHECK(workers >= 1);
  // A NaN cost would break the sort's strict weak ordering (undefined
  // behavior) and a negative cost would corrupt the min-heap loads, so both
  // are rejected up front. Costs reach this point from the analytical model
  // today but may come from measured telemetry later.
  std::vector<CellCost> order;
  for (const CellCost& c : costs) {
    PASJOIN_CHECK(!std::isnan(c.cost) && c.cost >= 0.0);
    if (c.cost > 0.0) order.push_back(c);
  }
  std::sort(order.begin(), order.end(),
            [](const CellCost& a, const CellCost& b) {
              if (a.cost != b.cost) return a.cost > b.cost;
              return a.cell < b.cell;
            });

  auto owners = std::make_shared<FlatIndex>();
  owners->Reserve(order.size());
  // Min-heap of (load, worker).
  using Entry = std::pair<double, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  for (int w = 0; w < workers; ++w) heap.push({0.0, w});
  for (const CellCost& c : order) {
    auto [load, w] = heap.top();
    heap.pop();
    owners->Insert(c.cell, w);
    heap.push({load + c.cost, w});
  }
  CellAssignment out(workers);
  out.lpt_owner_ = std::move(owners);
  return out;
}

CellAssignment CellAssignment::Lpt(const std::vector<double>& cell_costs,
                                   int workers) {
  // Nearly every cell of a fine grid costs +0.0, whose bits are all zero:
  // skip blocks of 8 such costs with one compare.
  static constexpr double kZeros[8] = {};
  std::vector<CellCost> costs;
  for (size_t c = 0; c < cell_costs.size(); ++c) {
    if (c % 8 == 0 && c + 8 <= cell_costs.size() &&
        std::memcmp(&cell_costs[c], kZeros, sizeof(kZeros)) == 0) {
      c += 7;
    } else if (cell_costs[c] != 0.0) {
      costs.push_back({static_cast<int32_t>(c), cell_costs[c]});
    }
  }
  return LptOverCells(costs, workers);
}

std::vector<double> CellAssignment::WorkerLoads(
    const std::vector<double>& cell_costs) const {
  std::vector<double> loads(static_cast<size_t>(workers_), 0.0);
  for (int32_t c = 0; c < static_cast<int32_t>(cell_costs.size()); ++c) {
    loads[static_cast<size_t>(OwnerOf(c))] += cell_costs[static_cast<size_t>(c)];
  }
  return loads;
}

}  // namespace pasjoin::core
