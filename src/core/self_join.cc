// Copyright 2026 The pasjoin Authors.
#include "core/self_join.h"

#include "core/driver.h"

namespace pasjoin::core {

Result<exec::JoinRun> SelfDistanceJoin(const Dataset& data,
                                       const SelfJoinOptions& options) {
  // UNI(R) over (data, data): one logical stream is replicated, the other
  // single-assigned, and the engine's self-join filter keeps each unordered
  // pair once. Both sides share one sample, so the estimated per-cell cost
  // is the exact square of the sampled density.
  UniformGridJoin join;
  join.algorithm = "self-join";
  join.eps = options.eps;
  join.resolution_factor = options.resolution_factor;
  join.replicated = Side::kR;
  join.self_join = true;
  if (options.use_lpt) join.lpt_sample_rate = options.lpt_sample_rate;
  join.sample_seed = options.lpt_sample_seed;
  join.mbr = options.mbr;
  return UniformGridDistanceJoin(data, data, join, options);
}

}  // namespace pasjoin::core
