// Copyright 2026 The pasjoin Authors.
#include "spatial/local_join.h"

namespace pasjoin::spatial {

const char* LocalJoinKernelName(LocalJoinKernel kernel) {
  switch (kernel) {
    case LocalJoinKernel::kSweepSoA:
      return "sweep-soa";
    case LocalJoinKernel::kRTree:
      return "rtree";
  }
  return "unknown";
}

std::vector<ResultPair> NestedLoopJoinPairs(const std::vector<Tuple>& r,
                                            const std::vector<Tuple>& s,
                                            double eps) {
  std::vector<ResultPair> out;
  NestedLoopJoin(r, s, eps, [&out](const Tuple& a, const Tuple& b) {
    out.push_back(ResultPair{a.id, b.id});
  });
  return out;
}

std::vector<ResultPair> PlaneSweepJoinPairs(std::vector<Tuple>* r,
                                            std::vector<Tuple>* s, double eps) {
  std::vector<ResultPair> out;
  PlaneSweepJoin(r, s, eps, [&out](const Tuple& a, const Tuple& b) {
    out.push_back(ResultPair{a.id, b.id});
  });
  return out;
}

}  // namespace pasjoin::spatial
