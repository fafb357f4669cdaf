// Copyright 2026 The pasjoin Authors.
#include "core/self_join.h"

namespace pasjoin::core {

Result<exec::JoinRun> SelfDistanceJoin(const Dataset& data,
                                       const SelfJoinOptions& options) {
  // UNI(R) over (data, data): one logical stream is replicated, the other
  // single-assigned, and the engine's self-join filter keeps each unordered
  // pair once.
  UniformGridJoin join;
  join.algorithm = "self-join";
  join.resolution_factor = options.resolution_factor;
  join.replicated = Side::kR;
  join.self_join = true;
  return UniformGridDistanceJoin(data, data, join, options);
}

}  // namespace pasjoin::core
